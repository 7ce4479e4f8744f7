#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace bcclap::graph {
namespace {

// Reference lookup by linear scan: the first incident edge of u
// (insertion order, so the lowest id) whose other endpoint is v.
std::optional<EdgeId> find_edge_by_scan(const Graph& g, VertexId u,
                                        VertexId v) {
  if (u >= g.num_vertices() || v >= g.num_vertices()) return std::nullopt;
  for (EdgeId e : g.incident(u)) {
    if (g.other_endpoint(e, u) == v) return e;
  }
  return std::nullopt;
}

TEST(Graph, AddEdgeNormalizesOrder) {
  Graph g(3);
  const EdgeId e = g.add_edge(2, 1, 5.0);
  EXPECT_EQ(g.edge(e).u, 1u);
  EXPECT_EQ(g.edge(e).v, 2u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 5.0);
}

TEST(Graph, FindEdgeAndOtherEndpoint) {
  Graph g(4);
  const EdgeId e = g.add_edge(0, 3, 1.0);
  EXPECT_TRUE(g.find_edge(0, 3).has_value());
  EXPECT_TRUE(g.find_edge(3, 0).has_value());
  EXPECT_FALSE(g.find_edge(1, 2).has_value());
  EXPECT_EQ(g.other_endpoint(e, 0), 3u);
  EXPECT_EQ(g.other_endpoint(e, 3), 0u);
}

// Differential check of the sorted-index lookup against the scan on random
// multigraphs: parallel edges (lowest id wins), both argument orders,
// absent pairs, u == v and out-of-range ids. Also pins incident() to
// insertion order, which the index must not disturb.
TEST(Graph, FindEdgeMatchesLinearScanOnRandomMultigraphs) {
  rng::Stream stream(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + stream.next_below(12);
    Graph g(n);
    if (n >= 2) {
      const std::size_t m = stream.next_below(3 * n);
      for (std::size_t i = 0; i < m; ++i) {
        const VertexId u = stream.next_below(n);
        VertexId v = stream.next_below(n - 1);
        if (v >= u) ++v;  // no self-loops
        g.add_edge(u, v, 1.0 + static_cast<double>(i));
        // Every third edge gets an immediate parallel twin.
        if (i % 3 == 0) g.add_edge(v, u, 0.5);
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      const auto& inc = g.incident(v);
      EXPECT_TRUE(std::is_sorted(inc.begin(), inc.end())) << trial;
      // The sorted index holds the same edges, ordered by (neighbour, id).
      std::vector<EdgeId> ids;
      std::vector<std::pair<VertexId, EdgeId>> keys;
      for (const Neighbour& nb : g.neighbours(v)) {
        EXPECT_EQ(g.other_endpoint(nb.edge, v), nb.vertex);
        ids.push_back(nb.edge);
        keys.emplace_back(nb.vertex, nb.edge);
      }
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()))
          << "trial " << trial << " vertex " << v;
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(ids, inc) << trial;
    }
    for (VertexId u = 0; u <= n + 1; ++u) {
      for (VertexId v = 0; v <= n + 1; ++v) {
        EXPECT_EQ(g.find_edge(u, v), find_edge_by_scan(g, u, v))
            << "trial " << trial << " pair (" << u << ", " << v << ")";
      }
    }
  }
}

TEST(Graph, FindEdgeReturnsLowestParallelId) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  const EdgeId first = g.add_edge(3, 2, 1.0);
  g.add_edge(2, 4, 1.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(3, 2, 3.0);
  EXPECT_EQ(g.find_edge(2, 3), first);
  EXPECT_EQ(g.find_edge(3, 2), first);
  EXPECT_FALSE(g.find_edge(2, 2).has_value());
  EXPECT_FALSE(g.find_edge(0, 4).has_value());
  EXPECT_FALSE(g.find_edge(0, 5).has_value());
  EXPECT_FALSE(g.find_edge(9, 1).has_value());
}

TEST(Graph, DegreesAndWeights) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 2, 3.0);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
  EXPECT_DOUBLE_EQ(g.max_weight(), 3.0);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(2, 3, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, EmptyGraphIsConnected) {
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, ShortestPathsWeighted) {
  // Triangle with a shortcut: 0-1 (10), 0-2 (1), 2-1 (2).
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 2.0);
  const auto d = g.shortest_paths(0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);  // via 2
  EXPECT_DOUBLE_EQ(d[2], 1.0);
}

TEST(Graph, ShortestPathsDisconnected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto d = g.shortest_paths(0);
  EXPECT_TRUE(std::isinf(d[2]));
}

TEST(Graph, SetWeight) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.set_weight(e, 4.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 4.0);
}

}  // namespace
}  // namespace bcclap::graph
