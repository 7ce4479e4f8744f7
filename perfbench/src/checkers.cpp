#include "checkers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace perfbench {

using bcclap::graph::Digraph;
using bcclap::graph::Graph;
using bcclap::linalg::Vec;

namespace {

std::size_t find_root(std::vector<std::size_t>& parent, std::size_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

double dot(const Vec& a, const Vec& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double energy(const Graph& g, const Vec& x) {
  double s = 0.0;
  for (const auto& e : g.edges()) {
    const double d = x[e.u] - x[e.v];
    s += e.weight * d * d;
  }
  return s;
}

}  // namespace

std::vector<std::size_t> component_labels(const Graph& g, std::size_t* count) {
  const std::size_t n = g.num_vertices();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  for (const auto& e : g.edges()) {
    const std::size_t a = find_root(parent, e.u);
    const std::size_t b = find_root(parent, e.v);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<std::size_t> label(n);
  std::vector<std::size_t> root_label(n, n);
  std::size_t next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t r = find_root(parent, v);
    if (root_label[r] == n) root_label[r] = next++;
    label[v] = root_label[r];
  }
  if (count) *count = next;
  return label;
}

Vec laplacian_times(const Graph& g, const Vec& x) {
  Vec y(g.num_vertices(), 0.0);
  for (const auto& e : g.edges()) {
    const double f = e.weight * (x[e.u] - x[e.v]);
    y[e.u] += f;
    y[e.v] -= f;
  }
  return y;
}

void remove_component_means(const std::vector<std::size_t>& labels,
                            std::size_t count, Vec& x) {
  std::vector<double> sum(count, 0.0);
  std::vector<double> size(count, 0.0);
  for (std::size_t v = 0; v < x.size(); ++v) {
    sum[labels[v]] += x[v];
    size[labels[v]] += 1.0;
  }
  for (std::size_t v = 0; v < x.size(); ++v) {
    x[v] -= sum[labels[v]] / size[labels[v]];
  }
}

Vec reference_solve(const Graph& g, const Vec& b_in, double rel_residual) {
  const std::size_t n = g.num_vertices();
  if (b_in.size() != n) throw std::invalid_argument("reference_solve: size");
  std::size_t count = 0;
  const auto labels = component_labels(g, &count);
  Vec b = b_in;
  remove_component_means(labels, count, b);
  Vec diag(n, 0.0);
  for (const auto& e : g.edges()) {
    diag[e.u] += e.weight;
    diag[e.v] += e.weight;
  }
  const double bnorm = std::sqrt(dot(b, b));
  Vec x(n, 0.0);
  if (bnorm == 0.0) return x;
  // Jacobi-preconditioned CG; isolated vertices (diag 0) keep x = 0.
  Vec r = b;
  Vec z(n), p(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = diag[i] > 0 ? r[i] / diag[i] : 0;
  p = z;
  double rz = dot(r, z);
  const std::size_t max_iter = 20 * n + 1000;
  for (std::size_t it = 0; it < max_iter; ++it) {
    const Vec ap = laplacian_times(g, p);
    const double pap = dot(p, ap);
    if (!(pap > 0)) break;
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    if (it % 16 == 15 || std::sqrt(dot(r, r)) <= rel_residual * bnorm) {
      // Recompute the true residual so rounding drift cannot fake
      // convergence.
      const Vec lx = laplacian_times(g, x);
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - lx[i];
      if (std::sqrt(dot(r, r)) <= rel_residual * bnorm) {
        remove_component_means(labels, count, x);
        return x;
      }
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = diag[i] > 0 ? r[i] / diag[i] : 0;
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  throw std::runtime_error("reference_solve: CG did not reach the residual");
}

Check check_solve(const Graph& g, const Vec& x_in, const Vec& x_ref,
                  double eps, double* error_ratio) {
  const std::size_t n = g.num_vertices();
  if (x_in.size() != n) return Check::fail("solution has the wrong size");
  for (double v : x_in) {
    if (!std::isfinite(v)) return Check::fail("solution is not finite");
  }
  std::size_t count = 0;
  const auto labels = component_labels(g, &count);
  Vec x = x_in;
  Vec ref = x_ref;
  remove_component_means(labels, count, x);
  remove_component_means(labels, count, ref);
  Vec err(n);
  for (std::size_t i = 0; i < n; ++i) err[i] = x[i] - ref[i];
  const double err_norm = std::sqrt(energy(g, err));
  const double ref_norm = std::sqrt(energy(g, ref));
  const double ratio = ref_norm > 0 ? err_norm / ref_norm : err_norm;
  if (error_ratio) *error_ratio = ratio;
  if (!(err_norm <= eps * ref_norm)) {
    return Check::fail("L_G-norm error " + std::to_string(ratio) +
                       " exceeds eps " + std::to_string(eps));
  }
  return {};
}

Check check_sparsifier(const Graph& g, const Graph& h,
                       const std::vector<bcclap::graph::EdgeId>& original_edge,
                       const std::vector<bcclap::graph::VertexId>& out_vertex) {
  if (h.num_vertices() != g.num_vertices()) {
    return Check::fail("H has a different vertex count");
  }
  if (original_edge.size() != h.num_edges() ||
      out_vertex.size() != h.num_edges()) {
    return Check::fail("original_edge/out_vertex sizes differ from |H|");
  }
  std::vector<bool> used(g.num_edges(), false);
  for (std::size_t i = 0; i < h.num_edges(); ++i) {
    const auto& he = h.edge(i);
    const std::size_t o = original_edge[i];
    if (o >= g.num_edges()) return Check::fail("original edge id out of range");
    if (used[o]) return Check::fail("an original edge appears twice in H");
    used[o] = true;
    const auto& ge = g.edge(o);
    if (std::min(he.u, he.v) != std::min(ge.u, ge.v) ||
        std::max(he.u, he.v) != std::max(ge.u, ge.v)) {
      return Check::fail("H edge endpoints differ from its original edge");
    }
    if (!(he.weight > 0) || !std::isfinite(he.weight)) {
      return Check::fail("H edge weight is not finite and positive");
    }
    if (out_vertex[i] != he.u && out_vertex[i] != he.v) {
      return Check::fail("out_vertex is not an endpoint of its edge");
    }
  }
  std::size_t gc = 0, hc = 0;
  const auto gl = component_labels(g, &gc);
  const auto hl = component_labels(h, &hc);
  // Labels are assigned in order of each component's lowest vertex, so
  // equal partitions give equal label vectors.
  if (gc != hc || gl != hl) {
    return Check::fail("H does not have G's connected components");
  }
  return {};
}

double spectral_epsilon(const Graph& g, const Graph& h) {
  const std::size_t n = g.num_vertices();
  if (n < 2) return 0.0;
  const std::size_t m = n - 1;  // ground vertex n - 1
  auto dense = [&](const Graph& x) {
    std::vector<double> a(m * m, 0.0);
    for (const auto& e : x.edges()) {
      if (e.u < m) a[e.u * m + e.u] += e.weight;
      if (e.v < m) a[e.v * m + e.v] += e.weight;
      if (e.u < m && e.v < m) {
        a[e.u * m + e.v] -= e.weight;
        a[e.v * m + e.u] -= e.weight;
      }
    }
    return a;
  };
  std::vector<double> lh = dense(h);
  const std::vector<double> lg = dense(g);
  // Cholesky L_H' = R R^T (R lower, stored in lh).
  for (std::size_t j = 0; j < m; ++j) {
    double d = lh[j * m + j];
    for (std::size_t k = 0; k < j; ++k) d -= lh[j * m + k] * lh[j * m + k];
    if (!(d > 0)) return std::numeric_limits<double>::infinity();
    const double rjj = std::sqrt(d);
    lh[j * m + j] = rjj;
    for (std::size_t i = j + 1; i < m; ++i) {
      double s = lh[i * m + j];
      for (std::size_t k = 0; k < j; ++k) s -= lh[i * m + k] * lh[j * m + k];
      lh[i * m + j] = s / rjj;
    }
  }
  // C = R^{-1} L_G' R^{-T}: solve R Y = L_G', then R C^T = Y^T.
  auto forward = [&](std::vector<double>& b) {  // columns of b, in place
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        double s = b[i * m + c];
        for (std::size_t k = 0; k < i; ++k) s -= lh[i * m + k] * b[k * m + c];
        b[i * m + c] = s / lh[i * m + i];
      }
    }
  };
  std::vector<double> y = lg;
  forward(y);
  std::vector<double> c(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) c[i * m + j] = y[j * m + i];
  }
  forward(c);
  for (std::size_t i = 0; i < m; ++i) {  // symmetrize rounding noise
    for (std::size_t j = i + 1; j < m; ++j) {
      const double s = 0.5 * (c[i * m + j] + c[j * m + i]);
      c[i * m + j] = c[j * m + i] = s;
    }
  }
  // Cyclic Jacobi eigenvalue iteration.
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0, total = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        total += c[i * m + j] * c[i * m + j];
        if (i != j) off += c[i * m + j] * c[i * m + j];
      }
    }
    if (off <= 1e-24 * total) break;
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) {
        const double apq = c[p * m + q];
        if (apq == 0.0) continue;
        const double theta = (c[q * m + q] - c[p * m + p]) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double cs = 1.0 / std::sqrt(t * t + 1.0);
        const double sn = t * cs;
        for (std::size_t k = 0; k < m; ++k) {  // rows p, q
          const double akp = c[p * m + k], akq = c[q * m + k];
          c[p * m + k] = cs * akp - sn * akq;
          c[q * m + k] = sn * akp + cs * akq;
        }
        for (std::size_t k = 0; k < m; ++k) {  // columns p, q
          const double akp = c[k * m + p], akq = c[k * m + q];
          c[k * m + p] = cs * akp - sn * akq;
          c[k * m + q] = sn * akp + cs * akq;
        }
      }
    }
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < m; ++i) {
    lo = std::min(lo, c[i * m + i]);
    hi = std::max(hi, c[i * m + i]);
  }
  return std::max(hi - 1.0, 1.0 - lo);
}

Check check_flow(const Digraph& g, std::size_t s, std::size_t t,
                 const std::vector<std::int64_t>& flow, std::int64_t value,
                 std::int64_t cost) {
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_arcs();
  if (flow.size() != m) return Check::fail("flow has the wrong size");
  std::vector<std::int64_t> net(n, 0);
  std::int64_t total_cost = 0;
  for (std::size_t a = 0; a < m; ++a) {
    const auto& arc = g.arc(a);
    if (flow[a] < 0 || flow[a] > arc.capacity) {
      return Check::fail("arc " + std::to_string(a) + " violates capacity");
    }
    net[arc.tail] += flow[a];
    net[arc.head] -= flow[a];
    total_cost += arc.cost * flow[a];
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (v != s && v != t && net[v] != 0) {
      return Check::fail("conservation fails at vertex " + std::to_string(v));
    }
  }
  if (net[s] != value) return Check::fail("reported value differs from flow");
  if (total_cost != cost) return Check::fail("reported cost differs from flow");
  // Residual arcs: forward while f < cap (cost c), backward while f > 0
  // (cost -c).
  struct Residual {
    std::size_t from, to;
    std::int64_t cost;
  };
  std::vector<Residual> res;
  for (std::size_t a = 0; a < m; ++a) {
    const auto& arc = g.arc(a);
    if (flow[a] < arc.capacity) res.push_back({arc.tail, arc.head, arc.cost});
    if (flow[a] > 0) res.push_back({arc.head, arc.tail, -arc.cost});
  }
  std::vector<std::vector<std::size_t>> out(n);
  for (const auto& r : res) out[r.from].push_back(r.to);
  std::vector<bool> seen(n, false);
  std::queue<std::size_t> bfs;
  bfs.push(s);
  seen[s] = true;
  while (!bfs.empty()) {
    const std::size_t u = bfs.front();
    bfs.pop();
    for (std::size_t v : out[u]) {
      if (!seen[v]) {
        seen[v] = true;
        bfs.push(v);
      }
    }
  }
  if (seen[t]) return Check::fail("an augmenting s-t path remains");
  // Bellman-Ford from a virtual root at distance 0 to every vertex: a
  // relaxation in round n proves a negative residual cycle.
  std::vector<std::int64_t> dist(n, 0);
  for (std::size_t round = 0; round <= n; ++round) {
    bool changed = false;
    for (const auto& r : res) {
      if (dist[r.from] + r.cost < dist[r.to]) {
        dist[r.to] = dist[r.from] + r.cost;
        changed = true;
      }
    }
    if (!changed) return {};
  }
  return Check::fail("a negative-cost residual cycle remains");
}

bool same_bytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench
