// Weighted undirected graph.
//
// Vertices are 0..n-1 (vertex id doubles as processor id in the BC/BCC
// models). Edges are stored once with u < v plus per-vertex adjacency into
// the edge array. Edge ids are stable, which the sparsifier relies on to
// maintain per-edge survival probabilities across iterations. A second
// per-vertex index, kept sorted by (neighbour, edge id) as edges are
// added, answers find_edge in O(log deg). add_edge pays an O(deg) sorted
// insert into it, O(1) when a vertex's neighbours arrive in ascending
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdint>
#include <optional>
#include <vector>

namespace bcclap::graph {

using VertexId = std::size_t;
using EdgeId = std::size_t;

struct Edge {
  VertexId u;
  VertexId v;
  double weight;
};

// One entry of a vertex's sorted neighbour index. 32-bit fields halve the
// index's memory; add_edge rejects graphs whose ids do not fit.
struct Neighbour {
  std::uint32_t vertex;
  std::uint32_t edge;
};

class Graph {
 public:
  explicit Graph(std::size_t n = 0) : adjacency_(n), by_neighbour_(n) {}

  std::size_t num_vertices() const { return adjacency_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  // Adds edge {u, v} (order normalized to u < v). Self-loops are rejected.
  // Throws std::length_error past 2^32 vertices or edges.
  EdgeId add_edge(VertexId u, VertexId v, double weight);

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  // Incident edge ids of v.
  const std::vector<EdgeId>& incident(VertexId v) const {
    return adjacency_[v];
  }
  // The endpoint of edge e that is not v.
  VertexId other_endpoint(EdgeId e, VertexId v) const;

  // v's incident edges sorted by (neighbour, edge id): the first entry for
  // a neighbour is the lowest-id edge to it, the one find_edge returns.
  const std::vector<Neighbour>& neighbours(VertexId v) const {
    return by_neighbour_[v];
  }

  // Edge id of {u, v} if present; among parallel edges, the lowest id.
  // O(log min(deg u, deg v)).
  std::optional<EdgeId> find_edge(VertexId u, VertexId v) const;

  double total_weight() const;
  double max_weight() const;
  std::size_t degree(VertexId v) const { return adjacency_[v].size(); }
  std::size_t max_degree() const;

  bool is_connected() const;

  // Connected-component label per vertex (labels are 0..k-1 in discovery
  // order) and the number of components.
  std::vector<std::size_t> component_labels() const;
  std::size_t num_components() const;

  // Weighted shortest-path distances from src (Dijkstra). Disconnected
  // vertices get +infinity. Used by spanner stretch verification.
  std::vector<double> shortest_paths(VertexId src) const;

  void set_weight(EdgeId e, double w) { edges_[e].weight = w; }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;  // insertion (= id) order
  std::vector<std::vector<Neighbour>> by_neighbour_;  // see neighbours()
};

}  // namespace bcclap::graph
