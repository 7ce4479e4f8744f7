// Output checkers written apart from the library: none of them calls a
// bcclap solver, factorization, sparsifier verifier or flow routine. They
// read only the plain data types (Graph, Digraph, vectors) the library
// returns, so a fault in a layer cannot also hide in its own check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/graph.h"
#include "linalg/vector_ops.h"

namespace perfbench {

// Outcome of one check: ok, or the first violation found.
struct Check {
  bool ok = true;
  std::string why;
  static Check fail(std::string reason) { return {false, std::move(reason)}; }
};

// Connected-component label per vertex (union-find), labels 0..count-1
// in order of each component's lowest vertex.
std::vector<std::size_t> component_labels(const bcclap::graph::Graph& g,
                                          std::size_t* count);

// L_G x from the edge list.
bcclap::linalg::Vec laplacian_times(const bcclap::graph::Graph& g,
                                    const bcclap::linalg::Vec& x);

// Subtracts each component's mean (the null space of L_G).
void remove_component_means(const std::vector<std::size_t>& labels,
                            std::size_t count, bcclap::linalg::Vec& x);

// Reference solution of L_G x = b (b projected onto range(L_G)) by
// Jacobi-preconditioned conjugate gradient to a relative residual of at
// most `rel_residual`; throws std::runtime_error when it cannot get there.
bcclap::linalg::Vec reference_solve(const bcclap::graph::Graph& g,
                                    const bcclap::linalg::Vec& b,
                                    double rel_residual = 1e-13);

// The solve contract: after removing component means, ||x - x_ref||_L <=
// eps * ||x_ref||_L. *error_ratio (if given) receives the left side over
// the right side's ||x_ref||_L, i.e. the achieved relative L_G-norm error.
Check check_solve(const bcclap::graph::Graph& g, const bcclap::linalg::Vec& x,
                  const bcclap::linalg::Vec& x_ref, double eps,
                  double* error_ratio = nullptr);

// H is a positively reweighted subgraph of G with G's connected
// components: |H| = |original_edge| = |out_vertex|, every H edge has the
// endpoints of its original G edge and a finite weight > 0, no original
// edge is used twice, and out_vertex[i] is an endpoint of H edge i.
Check check_sparsifier(const bcclap::graph::Graph& g,
                       const bcclap::graph::Graph& h,
                       const std::vector<bcclap::graph::EdgeId>& original_edge,
                       const std::vector<bcclap::graph::VertexId>& out_vertex);

// Achieved spectral error of H against G (connected G): the smallest eps
// with (1 - eps) L_H <= L_G <= (1 + eps) L_H, from the dense generalized
// eigenvalues of the grounded pencil (Cholesky of L_H, then cyclic
// Jacobi). Intended for n up to a few hundred. Returns +inf when L_H is
// not positive definite after grounding (H disconnected).
double spectral_epsilon(const bcclap::graph::Graph& g,
                        const bcclap::graph::Graph& h);

// An exact min-cost maximum s-t flow: one entry per arc, 0 <= f <= cap,
// conservation at every vertex but s and t, `value` and `cost` match the
// flow, no augmenting s-t path in the residual graph (maximum), and no
// negative-cost residual cycle by Bellman-Ford (minimum cost among
// maximum flows). Flows are int64, so integrality holds by type.
Check check_flow(const bcclap::graph::Digraph& g, std::size_t s,
                 std::size_t t, const std::vector<std::int64_t>& flow,
                 std::int64_t value, std::int64_t cost);

// Bitwise equality of two double vectors.
bool same_bytes(const bcclap::linalg::Vec& a, const bcclap::linalg::Vec& b);

}  // namespace perfbench
