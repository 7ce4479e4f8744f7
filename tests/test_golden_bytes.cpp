// Golden byte-identity of the spanner and the sparsifier.
//
// The determinism suite compares 1 worker against N workers of the same
// build, so it cannot see a change that alters the output bytes at every
// thread count. This suite pins, for fixed (graph, seed) cases, a 64-bit
// digest of everything the BC layers hand downstream:
//
//  - the probabilistic spanner's F+, F-, out-vertex orientation, round
//    count, deduction flag and per-label round breakdown;
//  - the sparsifier's edge bytes (endpoints + weight bit patterns), source
//    edge ids, orientation, round count and per-label round breakdown.
//
// A digest mismatch means the simulator, the spanner or the sparsifier now
// produces different bytes or charges different rounds. The failure
// message prints the new digest; update a pinned value only for a change
// that is meant to alter the protocol's output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bcc/network.h"
#include "graph/generators.h"
#include "spanner/probabilistic_spanner.h"
#include "sparsify/spectral_sparsify.h"
#include "support/fixtures.h"

namespace bcclap {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  void add(const std::vector<std::size_t>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (std::size_t x : xs) add(static_cast<std::uint64_t>(x));
  }
  void add(const std::map<std::string, std::int64_t>& breakdown) {
    add(static_cast<std::uint64_t>(breakdown.size()));
    for (const auto& [label, rounds] : breakdown) {
      for (char c : label) add(static_cast<std::uint64_t>(c));
      add(static_cast<std::uint64_t>(rounds));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t x) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << x;
  return os.str();
}

struct SpannerDigests {
  std::uint64_t f_plus, f_minus, out_vertex, breakdown;
};

struct SparsifierDigests {
  std::uint64_t edges, original_edge, out_vertex, breakdown;
};

SpannerDigests spanner_digests(const graph::Graph& g, std::uint64_t seed) {
  auto net = testsupport::bc_net(g);
  rng::Stream marks(seed);
  rng::Stream coins(seed + 1);
  spanner::ProbabilisticSpannerOptions opt;
  opt.k = 3;
  // Stateful oracle: pins the sequential decide path's call order too.
  const spanner::ExistenceOracle oracle = [&](graph::EdgeId) {
    return coins.bernoulli(0.5);
  };
  const auto res =
      spanner::spanner_with_probabilistic_edges(g, opt, oracle, marks, net);
  SpannerDigests d{};
  Digest fp, fm, ov, bd;
  fp.add(res.f_plus);
  fm.add(res.f_minus);
  ov.add(res.out_vertex);
  bd.add(static_cast<std::uint64_t>(res.rounds));
  bd.add(static_cast<std::uint64_t>(res.deduction_consistent));
  bd.add(net.accountant().breakdown());
  d.f_plus = fp.value();
  d.f_minus = fm.value();
  d.out_vertex = ov.value();
  d.breakdown = bd.value();
  return d;
}

SparsifierDigests sparsifier_digests(const graph::Graph& g,
                                     std::uint64_t seed) {
  auto net = testsupport::bc_net(g);
  const auto res = sparsify::spectral_sparsify(
      testsupport::test_context(seed), g,
      testsupport::small_sparsify_options(), net);
  SparsifierDigests d{};
  Digest ed, oe, ov, bd;
  ed.add(static_cast<std::uint64_t>(res.sparsifier.num_vertices()));
  ed.add(static_cast<std::uint64_t>(res.sparsifier.num_edges()));
  for (const graph::Edge& e : res.sparsifier.edges()) {
    ed.add(static_cast<std::uint64_t>(e.u));
    ed.add(static_cast<std::uint64_t>(e.v));
    ed.add(e.weight);
  }
  oe.add(res.original_edge);
  ov.add(res.out_vertex);
  bd.add(static_cast<std::uint64_t>(res.rounds));
  bd.add(static_cast<std::uint64_t>(res.deduction_consistent));
  bd.add(net.accountant().breakdown());
  d.edges = ed.value();
  d.original_edge = oe.value();
  d.out_vertex = ov.value();
  d.breakdown = bd.value();
  return d;
}

graph::Graph complete_case() {
  rng::Stream s(101);
  return graph::complete(40, 8, s);
}

graph::Graph expander_case() {
  rng::Stream s(202);
  return graph::random_regularish(96, 6, 16, s);
}

// A complete graph with every fifth edge doubled (heavier twin), so the
// lowest-id rule of Graph::find_edge decides which parallel edge the
// receiving side deduces about.
graph::Graph parallel_case() {
  rng::Stream s(303);
  graph::Graph g = graph::complete(24, 4, s);
  const std::size_t m = g.num_edges();
  for (graph::EdgeId e = 0; e < m; e += 5) {
    const graph::Edge ed = g.edge(e);
    g.add_edge(ed.v, ed.u, ed.weight + 1.0);
  }
  return g;
}

#define EXPECT_DIGEST(actual, expected) \
  EXPECT_EQ(hex(actual), hex(expected)) << #actual

TEST(GoldenBytes, CompleteGraph) {
  const graph::Graph g = complete_case();
  const SpannerDigests sp = spanner_digests(g, 11);
  EXPECT_DIGEST(sp.f_plus, 0x3d5ac7e9415cd48dull);
  EXPECT_DIGEST(sp.f_minus, 0xaea3f4d8eec91fecull);
  EXPECT_DIGEST(sp.out_vertex, 0xc61f8a681f96fe9cull);
  EXPECT_DIGEST(sp.breakdown, 0xc11de33383fe1139ull);
  const SparsifierDigests sf = sparsifier_digests(g, 12);
  EXPECT_DIGEST(sf.edges, 0xdae45795e874f20full);
  EXPECT_DIGEST(sf.original_edge, 0xee871d02aef16a80ull);
  EXPECT_DIGEST(sf.out_vertex, 0xacce90e8cbaf6a20ull);
  EXPECT_DIGEST(sf.breakdown, 0xa53f42685f9db6c7ull);
}

TEST(GoldenBytes, BoundedDegreeExpander) {
  const graph::Graph g = expander_case();
  const SpannerDigests sp = spanner_digests(g, 21);
  EXPECT_DIGEST(sp.f_plus, 0xbaffc1754a708841ull);
  EXPECT_DIGEST(sp.f_minus, 0x64cd78f196e827aaull);
  EXPECT_DIGEST(sp.out_vertex, 0x93b77a374221053bull);
  EXPECT_DIGEST(sp.breakdown, 0xd0ae3088e2901b9full);
  const SparsifierDigests sf = sparsifier_digests(g, 22);
  EXPECT_DIGEST(sf.edges, 0x9b9ec22a524fc739ull);
  EXPECT_DIGEST(sf.original_edge, 0x7fd957c112afd47cull);
  EXPECT_DIGEST(sf.out_vertex, 0xd31772b236f437ffull);
  EXPECT_DIGEST(sf.breakdown, 0xd2fbde1cdb84bf1cull);
}

TEST(GoldenBytes, ParallelEdges) {
  const graph::Graph g = parallel_case();
  const SpannerDigests sp = spanner_digests(g, 31);
  EXPECT_DIGEST(sp.f_plus, 0x52e276e3df408fcfull);
  EXPECT_DIGEST(sp.f_minus, 0x196c3f585c2db8ddull);
  EXPECT_DIGEST(sp.out_vertex, 0xf4dde61cf0ce7876ull);
  EXPECT_DIGEST(sp.breakdown, 0xe9ce0a0c911b66aaull);
  const SparsifierDigests sf = sparsifier_digests(g, 32);
  EXPECT_DIGEST(sf.edges, 0x39ebe421b5a618c3ull);
  EXPECT_DIGEST(sf.original_edge, 0xbe1f65d3d04cfd1aull);
  EXPECT_DIGEST(sf.out_vertex, 0x1cff6b6b299f80b5ull);
  EXPECT_DIGEST(sf.breakdown, 0x83be29f1257c23d6ull);
}

}  // namespace
}  // namespace bcclap
