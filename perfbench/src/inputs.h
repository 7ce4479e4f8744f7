// Benchmark inputs, generated from the --seed argument alone.
//
// The generators live here, not in graph::generators, so that a change to
// the library's own generators or to its rng streams cannot shift the
// benchmark's inputs: the same seed gives the same graphs, right-hand
// sides and flow networks at every commit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/digraph.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"

namespace perfbench {

// SplitMix64: a tiny, fixed PRNG owned by the benchmark.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);
  // Uniform in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi);
  // Uniform in [-1, 1).
  double symmetric();

 private:
  std::uint64_t state_;
};

// Mixes a seed with a tag, so each input family draws its own stream.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

// Complete graph on n vertices, integer weights uniform in [1, max_weight].
bcclap::graph::Graph complete_graph(std::size_t n, std::int64_t max_weight,
                                    Rng& rng);

// Bounded-degree expander: a random Hamiltonian path (so the graph is
// connected) plus `rounds` random permutations i -> perm(i), duplicates
// and self-loops dropped; integer weights uniform in [1, max_weight]. Each
// round adds about n edges, so the average degree is about 2 * rounds + 2.
bcclap::graph::Graph expander_graph(std::size_t n, std::size_t rounds,
                                    std::int64_t max_weight, Rng& rng);

// Right-hand side with entries uniform in [-1, 1).
bcclap::linalg::Vec rhs(std::size_t n, Rng& rng);

// Flow network from s = 0 to t = n - 1: an s-t path through every vertex
// in random order plus `extra_arcs` random arcs (none into s, none out of
// t, no parallel arcs), capacities in [1, max_capacity], costs in
// [0, max_cost].
bcclap::graph::Digraph flow_network(std::size_t n, std::size_t extra_arcs,
                                    std::int64_t max_capacity,
                                    std::int64_t max_cost, Rng& rng);

// The undirected support of a flow network (arc costs + 1 as weights,
// parallel arcs merged by keeping the first).
bcclap::graph::Graph undirected_support(const bcclap::graph::Digraph& g);

}  // namespace perfbench
