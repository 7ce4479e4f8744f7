// Each checker must accept a correct answer and reject corrupted ones.
//
//   .bench_build/perfbench/perfbench_checker_tests   (exit 0 = all pass)
//
// The correct answers come from the checkers' own reference paths or are
// built by hand, so no library solver is needed here.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checkers.h"
#include "inputs.h"

namespace {

using namespace perfbench;
using bcclap::graph::Digraph;
using bcclap::graph::Graph;
using bcclap::linalg::Vec;

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  } else {
    std::printf("ok:   %s\n", what.c_str());
  }
}

void solve_checker() {
  Rng rng(11);
  const Graph g = expander_graph(200, 4, 16, rng);
  const Vec b = rhs(200, rng);
  const Vec x = reference_solve(g, b);
  // The reference itself meets its residual.
  Vec r = laplacian_times(g, x);
  std::size_t count = 0;
  const auto labels = component_labels(g, &count);
  Vec bp = b;
  remove_component_means(labels, count, bp);
  double rn = 0, bn = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    rn += (bp[i] - r[i]) * (bp[i] - r[i]);
    bn += bp[i] * bp[i];
  }
  expect(std::sqrt(rn) <= 1e-13 * std::sqrt(bn), "reference CG reaches 1e-13");
  expect(check_solve(g, x, x, 1e-6).ok, "solve: exact answer passes");
  Vec shifted = x;
  for (auto& v : shifted) v += 3.0;  // a null-space shift is not an error
  expect(check_solve(g, shifted, x, 1e-6).ok, "solve: constant shift passes");
  Vec bad = x;
  bad[7] += 1e-3;
  expect(!check_solve(g, bad, x, 1e-6).ok, "solve: perturbed answer fails");
  Vec nan = x;
  nan[0] = std::nan("");
  expect(!check_solve(g, nan, x, 1e-6).ok, "solve: NaN answer fails");
  expect(!check_solve(g, Vec(199, 0.0), x, 1e-6).ok, "solve: wrong size fails");
}

struct Sparsified {
  Graph h;
  std::vector<bcclap::graph::EdgeId> original;
  std::vector<bcclap::graph::VertexId> out;
};

// Every other edge of g plus a spanning path, reweighted by 2.
Sparsified subgraph_of(const Graph& g) {
  Sparsified s{Graph(g.num_vertices()), {}, {}};
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    if (e % 2 == 0 || ed.v == ed.u + 1) {
      s.h.add_edge(ed.u, ed.v, 2.0 * ed.weight);
      s.original.push_back(e);
      s.out.push_back(ed.u);
    }
  }
  return s;
}

void sparsifier_checker() {
  Rng rng(12);
  const Graph g = complete_graph(24, 8, rng);
  const Sparsified good = subgraph_of(g);
  expect(check_sparsifier(g, good.h, good.original, good.out).ok,
         "sparsifier: reweighted subgraph passes");
  {
    Sparsified s = good;
    s.h.set_weight(3, -1.0);
    expect(!check_sparsifier(g, s.h, s.original, s.out).ok,
           "sparsifier: negative weight fails");
  }
  {
    Sparsified s = good;
    s.original[2] = s.original[3];
    expect(!check_sparsifier(g, s.h, s.original, s.out).ok,
           "sparsifier: edge mapped to the wrong original fails");
  }
  {
    Sparsified s = good;
    const auto& e = s.h.edge(5);
    std::size_t other = 0;
    while (other == e.u || other == e.v) ++other;
    s.out[5] = other;
    expect(!check_sparsifier(g, s.h, s.original, s.out).ok,
           "sparsifier: out_vertex off its edge fails");
  }
  {
    // Drop every edge at vertex 0: H loses G's connectivity.
    Sparsified s{Graph(g.num_vertices()), {}, {}};
    for (std::size_t i = 0; i < good.h.num_edges(); ++i) {
      const auto& e = good.h.edge(i);
      if (e.u == 0 || e.v == 0) continue;
      s.h.add_edge(e.u, e.v, e.weight);
      s.original.push_back(good.original[i]);
      s.out.push_back(good.out[i]);
    }
    expect(!check_sparsifier(g, s.h, s.original, s.out).ok,
           "sparsifier: disconnected H fails");
  }
  {
    Sparsified s = good;
    s.out.pop_back();
    expect(!check_sparsifier(g, s.h, s.original, s.out).ok,
           "sparsifier: missing orientation fails");
  }
  // Spectral error: H = G is exact, H = 2G has eps = 1/2 exactly.
  Graph twice(g.num_vertices());
  for (const auto& e : g.edges()) twice.add_edge(e.u, e.v, 2 * e.weight);
  expect(spectral_epsilon(g, g) < 1e-9, "spectral eps of H = G is 0");
  expect(std::fabs(spectral_epsilon(g, twice) - 0.5) < 1e-9,
         "spectral eps of H = 2G is 1/2");
}

// s=0, t=3; routes 0-1-3 (cost 1+1) and 0-2-3 (cost 2+2) of capacity 2
// each, plus an arc 1->2 (cost 0, capacity 1). Its only maximum flow
// saturates both routes.
Digraph diamond() {
  Digraph g(4);
  g.add_arc(0, 1, 2, 1);  // 0
  g.add_arc(1, 3, 2, 1);  // 1
  g.add_arc(0, 2, 2, 2);  // 2
  g.add_arc(2, 3, 2, 2);  // 3
  g.add_arc(1, 2, 1, 0);  // 4
  return g;
}

void flow_checker() {
  const Digraph g = diamond();
  // Max flow 4 at min cost 2*2 + 2*4 = 12.
  const std::vector<std::int64_t> best = {2, 2, 2, 2, 0};
  expect(check_flow(g, 0, 3, best, 4, 12).ok, "flow: optimal flow passes");
  expect(!check_flow(g, 0, 3, {2, 2, 2, 3, 0}, 4, 14).ok,
         "flow: conservation violation fails");
  expect(!check_flow(g, 0, 3, {3, 3, 2, 2, 0}, 5, 14).ok,
         "flow: capacity violation fails");
  expect(!check_flow(g, 0, 3, {2, 2, 1, 1, 0}, 3, 8).ok,
         "flow: non-maximum flow fails");
  // Two unit routes that cross over 1->2 (cost 0) and 2->1 (cost 3): a
  // maximum flow of cost 15, where the direct routes cost 12.
  Digraph x(4);
  x.add_arc(0, 1, 1, 1);
  x.add_arc(1, 3, 1, 1);
  x.add_arc(0, 2, 1, 5);
  x.add_arc(2, 3, 1, 5);
  x.add_arc(1, 2, 1, 0);
  x.add_arc(2, 1, 1, 3);
  expect(check_flow(x, 0, 3, {1, 1, 1, 1, 0, 0}, 2, 12).ok,
         "flow: direct routes pass");
  expect(!check_flow(x, 0, 3, {1, 1, 1, 1, 1, 1}, 2, 15).ok,
         "flow: non-minimum-cost flow fails");
  expect(!check_flow(g, 0, 3, best, 4, 11).ok, "flow: wrong reported cost fails");
  expect(!check_flow(g, 0, 3, best, 3, 12).ok, "flow: wrong reported value fails");
}

void byte_checker() {
  const Vec a = {1.0, 2.0, 3.0};
  Vec b = a;
  expect(same_bytes(a, b), "bytes: equal vectors pass");
  b[1] = std::nextafter(b[1], 3.0);
  expect(!same_bytes(a, b), "bytes: one-ulp change fails");
  expect(!same_bytes({0.0}, {-0.0}), "bytes: signed zero differs");
}

}  // namespace

int main() {
  solve_checker();
  sparsifier_checker();
  flow_checker();
  byte_checker();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
