#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace bcclap::graph {

EdgeId Graph::add_edge(VertexId u, VertexId v, double weight) {
  assert(u != v && "self-loops are not allowed");
  assert(u < num_vertices() && v < num_vertices());
  if (u > v) std::swap(u, v);
  const EdgeId id = edges_.size();
  constexpr std::size_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  if (v > kMaxId || id > kMaxId) {
    throw std::length_error("Graph::add_edge: ids past 2^32 do not fit the "
                            "neighbour index");
  }
  edges_.push_back({u, v, weight});
  adjacency_[u].push_back(id);
  adjacency_[v].push_back(id);
  // The new id is the largest, so it goes after every existing entry for
  // the same neighbour: the first entry per neighbour is the lowest id.
  const auto insert = [id](std::vector<Neighbour>& index, VertexId w) {
    const auto at = std::upper_bound(
        index.begin(), index.end(), w,
        [](VertexId x, const Neighbour& nb) { return x < nb.vertex; });
    index.insert(at, {static_cast<std::uint32_t>(w),
                      static_cast<std::uint32_t>(id)});
  };
  insert(by_neighbour_[u], v);
  insert(by_neighbour_[v], u);
  return id;
}

VertexId Graph::other_endpoint(EdgeId e, VertexId v) const {
  const Edge& ed = edges_[e];
  assert(ed.u == v || ed.v == v);
  return ed.u == v ? ed.v : ed.u;
}

std::optional<EdgeId> Graph::find_edge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return std::nullopt;
  const VertexId probe = degree(u) <= degree(v) ? u : v;
  const VertexId target = probe == u ? v : u;
  const auto& index = by_neighbour_[probe];
  const auto it = std::lower_bound(
      index.begin(), index.end(), target,
      [](const Neighbour& nb, VertexId x) { return nb.vertex < x; });
  if (it == index.end() || it->vertex != target) return std::nullopt;
  return it->edge;
}

double Graph::total_weight() const {
  double s = 0.0;
  for (const Edge& e : edges_) s += e.weight;
  return s;
}

double Graph::max_weight() const {
  double m = 0.0;
  for (const Edge& e : edges_) m = std::max(m, e.weight);
  return m;
}

std::size_t Graph::max_degree() const {
  std::size_t m = 0;
  for (const auto& adj : adjacency_) m = std::max(m, adj.size());
  return m;
}

bool Graph::is_connected() const {
  const std::size_t n = num_vertices();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::queue<VertexId> q;
  q.push(0);
  seen[0] = true;
  std::size_t count = 1;
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (EdgeId e : adjacency_[v]) {
      const VertexId u = other_endpoint(e, v);
      if (!seen[u]) {
        seen[u] = true;
        ++count;
        q.push(u);
      }
    }
  }
  return count == n;
}

std::vector<std::size_t> Graph::component_labels() const {
  const std::size_t n = num_vertices();
  std::vector<std::size_t> label(n, static_cast<std::size_t>(-1));
  std::size_t next = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (label[start] != static_cast<std::size_t>(-1)) continue;
    const std::size_t c = next++;
    std::queue<VertexId> q;
    q.push(start);
    label[start] = c;
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (EdgeId e : adjacency_[v]) {
        const VertexId u = other_endpoint(e, v);
        if (label[u] == static_cast<std::size_t>(-1)) {
          label[u] = c;
          q.push(u);
        }
      }
    }
  }
  return label;
}

std::size_t Graph::num_components() const {
  const auto labels = component_labels();
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  return num_vertices() == 0 ? 0 : k;
}

std::vector<double> Graph::shortest_paths(VertexId src) const {
  const std::size_t n = num_vertices();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (EdgeId e : adjacency_[v]) {
      const VertexId u = other_endpoint(e, v);
      const double nd = d + edges_[e].weight;
      if (nd < dist[u]) {
        dist[u] = nd;
        pq.push({nd, u});
      }
    }
  }
  return dist;
}

}  // namespace bcclap::graph
