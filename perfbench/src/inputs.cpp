#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

namespace perfbench {

using bcclap::graph::Digraph;
using bcclap::graph::Graph;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Rejection sampling keeps the draw unbiased.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t r = next();
  while (r >= limit) r = next();
  return r % bound;
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::symmetric() {
  return 2.0 * static_cast<double>(next() >> 11) * 0x1.0p-53 - 1.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  r.next();
  return r.next();
}

namespace {

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

double weight(std::int64_t max_weight, Rng& rng) {
  return static_cast<double>(rng.between(1, max_weight));
}

}  // namespace

Graph complete_graph(std::size_t n, std::int64_t max_weight, Rng& rng) {
  Graph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) g.add_edge(u, v, weight(max_weight, rng));
  }
  return g;
}

Graph expander_graph(std::size_t n, std::size_t rounds,
                     std::int64_t max_weight, Rng& rng) {
  Graph g(n);
  std::unordered_set<std::uint64_t> present;
  auto add = [&](std::size_t a, std::size_t b) {
    if (a == b) return;
    const std::size_t u = std::min(a, b);
    const std::size_t v = std::max(a, b);
    if (present.insert(static_cast<std::uint64_t>(u) * n + v).second) {
      g.add_edge(u, v, weight(max_weight, rng));
    }
  };
  const auto order = permutation(n, rng);
  for (std::size_t i = 0; i + 1 < n; ++i) add(order[i], order[i + 1]);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto perm = permutation(n, rng);
    for (std::size_t i = 0; i < n; ++i) add(i, perm[i]);
  }
  return g;
}

bcclap::linalg::Vec rhs(std::size_t n, Rng& rng) {
  bcclap::linalg::Vec b(n);
  for (auto& v : b) v = rng.symmetric();
  return b;
}

Digraph flow_network(std::size_t n, std::size_t extra_arcs,
                     std::int64_t max_capacity, std::int64_t max_cost,
                     Rng& rng) {
  Digraph g(n);
  std::unordered_set<std::uint64_t> present;
  auto add = [&](std::size_t u, std::size_t v) {
    if (u == v || v == 0 || u == n - 1) return;
    if (!present.insert(static_cast<std::uint64_t>(u) * n + v).second) return;
    const std::int64_t cap = rng.between(1, max_capacity);
    const std::int64_t cost = rng.between(0, max_cost);
    g.add_arc(u, v, cap, cost);
  };
  std::vector<std::size_t> interior(n - 2);
  std::iota(interior.begin(), interior.end(), std::size_t{1});
  for (std::size_t i = interior.size(); i > 1; --i) {
    std::swap(interior[i - 1], interior[rng.below(i)]);
  }
  std::size_t prev = 0;
  for (std::size_t v : interior) {
    add(prev, v);
    prev = v;
  }
  add(prev, n - 1);
  for (std::size_t i = 0; i < extra_arcs; ++i) {
    add(rng.below(n), rng.below(n));
  }
  return g;
}

Graph undirected_support(const Digraph& d) {
  const std::size_t n = d.num_vertices();
  Graph g(n);
  std::unordered_set<std::uint64_t> present;
  for (const auto& a : d.arcs()) {
    const std::size_t u = std::min(a.tail, a.head);
    const std::size_t v = std::max(a.tail, a.head);
    if (present.insert(static_cast<std::uint64_t>(u) * n + v).second) {
      g.add_edge(u, v, static_cast<double>(a.cost + 1));
    }
  }
  return g;
}

}  // namespace perfbench
