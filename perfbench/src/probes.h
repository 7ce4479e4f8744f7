// Traced mode: per-layer metrics, timed from outside the library around
// calls into each layer's public functions (bcc::Network::exchange,
// spanner::bundle_spanner, sparsify::spectral_sparsify, the engine
// registry's prepare/apply, linalg::amd_order / SparseLdltFactor /
// graph::apply_laplacian, lp::leverage_scores_exact, an LpOptions::
// gram_factory wrapper, service::SolverService and core::FactorCache
// statistics). The library itself is not instrumented.
//
// Every traced run emits every per-layer metric (kLayerMetrics): each
// workload runs all the probes, on inputs derived from its own.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "core/runtime.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "lp/lp_solver.h"
#include "service/solver_service.h"

namespace perfbench {

class LayerProbes;

// Wraps the LP layer's Gram-system engines (the registry engine the LP
// would build by default, with the same options, so outputs are
// unchanged) and times their construction (the factorization) and their
// solves.
class GramTimer {
 public:
  explicit GramTimer(const bcclap::common::Context& ctx) : ctx_(ctx) {}
  GramTimer(const GramTimer&) = delete;
  GramTimer& operator=(const GramTimer&) = delete;
  // The factory to install in LpOptions::gram_factory; valid while this
  // object lives.
  bcclap::lp::GramSolverFactory factory();
  // Sets lp.gram_factor_ms, lp.gram_solve_ms, lp.gram_solves and
  // lp.other_ms as per-flow values, given the number of flows and their
  // total wall time.
  void report(LayerProbes& probes, double flows, double total_s) const;

  struct Totals {
    double factor_s = 0.0;
    double solve_s = 0.0;
    double solves = 0.0;
  };

 private:
  bcclap::common::Context ctx_;
  std::shared_ptr<Totals> totals_ = std::make_shared<Totals>();
};

class LayerProbes {
 public:
  explicit LayerProbes(const RunOptions& opt);
  ~LayerProbes();

  void set(const std::string& name, double value);

  // bcc, spanner, sparsify, laplacian and linalg probes on a connected g.
  void graph_layers(const bcclap::graph::Graph& g,
                    const bcclap::linalg::Vec& b, double eps,
                    const bcclap::sparsify::SparsifyOptions& sparsify);
  // One Lewis-mode min-cost flow through a GramTimer (lp.*, flow.*), on
  // `net` or, when null, a small network drawn from the run seed; then
  // leverage() on the same network.
  void lp_layers(const bcclap::graph::Digraph* net);
  // lp.leverage_ms: one leverage_scores_exact call on the dense incidence
  // matrix of `net` (source column dropped).
  void leverage(const bcclap::graph::Digraph& net);
  // core.* and service.* from a short closed-loop SolverService session
  // of single-RHS solves on g.
  void service_layers(const bcclap::graph::Graph& g, double eps);
  // core.* and service.* from a finished service session.
  void set_service(const bcclap::service::ServiceStats& stats,
                   double queue_wait_s, double serve_s,
                   std::size_t cache_high_water_bytes);

  // Adds every per-layer metric to out.metrics, in declaration order;
  // throws std::logic_error if a probe left one unset.
  void emit(Outcome& out) const;

 private:
  RunOptions opt_;
  std::unique_ptr<bcclap::Runtime> rt_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench
