#include "probes.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bcc/network.h"
#include "core/factor_cache.h"
#include "graph/laplacian.h"
#include "inputs.h"
#include "laplacian/engine.h"
#include "linalg/amd.h"
#include "linalg/sparse_ldlt.h"
#include "lp/leverage_scores.h"
#include "spanner/bundle.h"
#include "sparsify/spectral_sparsify.h"

namespace perfbench {

using bcclap::graph::Digraph;
using bcclap::graph::Graph;
using bcclap::linalg::Vec;

namespace {

// Every per-layer metric with its unit, in the order BENCHMARK.json lists
// them. bcc.rounds.<label> covers the RoundAccountant labels the
// sparsifier charges today; bcc.rounds.other takes any other label.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"bcc.exchange_ms", "ms"},
    {"bcc.deliveries_per_s", "1/s"},
    {"bcc.rounds.spanner.step1", "count"},
    {"bcc.rounds.spanner.step2", "count"},
    {"bcc.rounds.spanner.step3.1", "count"},
    {"bcc.rounds.spanner.step3.2", "count"},
    {"bcc.rounds.spanner.step4", "count"},
    {"bcc.rounds.sparsify.final-sample", "count"},
    {"bcc.rounds.other", "count"},
    {"spanner.bundle_ms", "ms"},
    {"spanner.bundle_edges", "count"},
    {"sparsify.call_ms", "ms"},
    {"sparsify.iterations", "count"},
    {"sparsify.kept_ratio", "1"},
    {"laplacian.prepare_ms", "ms"},
    {"laplacian.apply_ms", "ms"},
    {"laplacian.apply_iterations", "count"},
    {"laplacian.apply_rounds", "count"},
    {"linalg.amd_ms", "ms"},
    {"linalg.dense_tail_dim", "count"},
    {"linalg.fill_nnz", "count"},
    {"linalg.factor_ms", "ms"},
    {"linalg.factor_solve_ms", "ms"},
    {"linalg.matvec_ms", "ms"},
    {"lp.path_steps", "count"},
    {"lp.newton_steps", "count"},
    {"lp.gram_factor_ms", "ms"},
    {"lp.gram_solve_ms", "ms"},
    {"lp.gram_solves", "count"},
    {"lp.leverage_ms", "ms"},
    {"lp.other_ms", "ms"},
    {"flow.retries", "count"},
    {"core.cache_hit_ratio", "1"},
    {"core.cache_evictions", "count"},
    {"core.resident_high_water_mb", "MB"},
    {"service.queue_wait_ms", "ms"},
    {"service.serve_ms", "ms"},
    {"service.coalesced_panels", "count"},
    {"service.warm_admissions", "count"},
    {"service.runtime_build_ms", "ms"},
    {"trace.op_p50_s", "s"},
};

double ms_since(Clock::time_point t) { return 1e3 * seconds_since(t); }

// Delegates to the engine the LP layer would have built and adds the
// wall time of every solve to the shared totals.
class TimedSdd : public bcclap::laplacian::SddEngine {
 public:
  TimedSdd(std::unique_ptr<bcclap::laplacian::SddEngine> inner,
           std::shared_ptr<GramTimer::Totals> totals)
      : inner_(std::move(inner)), totals_(std::move(totals)) {}
  Vec solve(const Vec& y, double eps) override {
    const auto t = Clock::now();
    Vec x = inner_->solve(y, eps);
    totals_->solve_s += seconds_since(t);
    totals_->solves += 1.0;
    return x;
  }
  bcclap::linalg::DenseMatrix solve_many(const bcclap::linalg::DenseMatrix& y,
                                         double eps) override {
    const auto t = Clock::now();
    auto x = inner_->solve_many(y, eps);
    totals_->solve_s += seconds_since(t);
    totals_->solves += static_cast<double>(y.cols());
    return x;
  }
  std::int64_t rounds_charged() const override {
    return inner_->rounds_charged();
  }
  std::string_view key() const override { return inner_->key(); }

 private:
  std::unique_ptr<bcclap::laplacian::SddEngine> inner_;
  std::shared_ptr<GramTimer::Totals> totals_;
};

}  // namespace

bcclap::lp::GramSolverFactory GramTimer::factory() {
  // Same engine and options as lp_solve's default path: registry key
  // "auto", network_n = dim + 1, eps_hint = 1e-12.
  return [ctx = ctx_, totals = totals_](const bcclap::linalg::DenseMatrix& gram)
             -> std::unique_ptr<bcclap::laplacian::SddEngine> {
    bcclap::laplacian::SddEngineOptions eopt;
    eopt.network_n = gram.rows() + 1;
    eopt.eps_hint = 1e-12;
    const auto t = Clock::now();
    auto inner = bcclap::laplacian::EngineRegistry::instance().create_sdd(
        "auto", ctx, gram, eopt);
    totals->factor_s += seconds_since(t);
    return std::make_unique<TimedSdd>(std::move(inner), totals);
  };
}

void GramTimer::report(LayerProbes& probes, double flows, double total_s) const {
  const Totals& t = *totals_;
  probes.set("lp.gram_factor_ms", 1e3 * t.factor_s / flows);
  probes.set("lp.gram_solve_ms", 1e3 * t.solve_s / flows);
  probes.set("lp.gram_solves", t.solves / flows);
  probes.set("lp.other_ms", 1e3 * (total_s - t.factor_s - t.solve_s) / flows);
}

LayerProbes::LayerProbes(const RunOptions& opt) : opt_(opt) {
  bcclap::RuntimeOptions ro;
  ro.threads = bench_workers();
  ro.seed = mix_seed(opt.seed, 0x9b0be);
  rt_ = std::make_unique<bcclap::Runtime>(ro);
}

LayerProbes::~LayerProbes() = default;

void LayerProbes::set(const std::string& name, double value) {
  values_[name] = value;
}

void LayerProbes::graph_layers(const Graph& g, const Vec& b, double eps,
                               const bcclap::sparsify::SparsifyOptions& sp) {
  const auto ctx = rt_->context();
  const std::size_t n = g.num_vertices();
  const auto bandwidth = bcclap::bcc::Network::default_bandwidth(n);
  using bcclap::bcc::Model;

  // bcc: one spanner-shaped superstep (every node broadcasts a flag, two
  // ids and a weight, as in the spanner's step 2) on G's topology.
  {
    bcclap::bcc::Network net(Model::kBroadcastCongest, g, bandwidth, ctx);
    std::vector<std::vector<bcclap::bcc::Message>> outboxes(n);
    for (std::size_t v = 0; v < n; ++v) {
      bcclap::bcc::Message msg;
      msg.push_flag(true);
      msg.push_id(v, n);
      msg.push_id(g.degree(v) ? g.other_endpoint(g.incident(v)[0], v) : v, n);
      msg.push(v % 16 + 1, 5);
      outboxes[v].push_back(msg);
    }
    std::vector<double> times;
    double deliveries = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t = Clock::now();
      const auto inboxes = net.exchange(outboxes, "bench/exchange");
      times.push_back(seconds_since(t));
      deliveries = 0.0;
      for (const auto& in : inboxes) deliveries += static_cast<double>(in.size());
    }
    const double s = median(times);
    set("bcc.exchange_ms", 1e3 * s);
    set("bcc.deliveries_per_s", deliveries / s);
  }

  // spanner: one t-bundle with every edge available and present.
  {
    bcclap::bcc::Network net(Model::kBroadcastCongest, g, bandwidth, ctx);
    std::vector<bool> avail(g.num_edges(), true);
    std::vector<double> w(g.num_edges());
    for (std::size_t e = 0; e < g.num_edges(); ++e) w[e] = g.edge(e).weight;
    bcclap::rng::Stream marks(mix_seed(opt_.seed, 0x5a));
    const auto t = Clock::now();
    const auto bundle = bcclap::spanner::bundle_spanner(
        g, avail, w, sp.k, sp.t, [](bcclap::graph::EdgeId) { return true; },
        marks, net, /*pure_oracle=*/true);
    set("spanner.bundle_ms", ms_since(t));
    set("spanner.bundle_edges", static_cast<double>(bundle.bundle_edges.size()));
  }

  // sparsify: Algorithm 5 on a benchmark-owned network; its accountant
  // gives the per-label round split.
  {
    bcclap::bcc::Network net(Model::kBroadcastCongest, g, bandwidth, ctx);
    const auto t = Clock::now();
    const auto res = bcclap::sparsify::spectral_sparsify(ctx, g, sp, net);
    set("sparsify.call_ms", ms_since(t));
    set("sparsify.iterations", static_cast<double>(res.stats.iterations));
    set("sparsify.kept_ratio", static_cast<double>(res.sparsifier.num_edges()) /
                                   static_cast<double>(g.num_edges()));
    double other = 0.0;
    for (const auto& [name, unit] : kLayerMetrics) {
      if (name.rfind("bcc.rounds.", 0) == 0 && name != "bcc.rounds.other") {
        set(name, 0.0);
      }
    }
    for (const auto& [label, rounds] : net.accountant().breakdown()) {
      std::string name = "bcc.rounds." + label;
      std::replace(name.begin(), name.end(), '/', '.');
      if (values_.count(name)) set(name, static_cast<double>(rounds));
      else other += static_cast<double>(rounds);
    }
    set("bcc.rounds.other", other);
  }

  // laplacian: the engine "auto" resolves to, prepared and applied once.
  {
    auto& reg = bcclap::laplacian::EngineRegistry::instance();
    const std::string key = reg.resolve(
        "auto", n, bcclap::laplacian::EngineRegistry::laplacian_density(g), eps);
    bcclap::laplacian::EngineOptions eo;
    eo.eps = eps;
    eo.sparsify = sp;
    auto engine = reg.create(key, eo);
    auto t = Clock::now();
    const bool usable = engine->factor(ctx, g);
    set("laplacian.prepare_ms", ms_since(t));
    double apply_ms = 0.0;
    if (usable) {
      t = Clock::now();
      (void)engine->solve(ctx, b);
      apply_ms = ms_since(t);
    }
    bcclap::core::RunStats st;
    engine->report(&st);
    set("laplacian.apply_ms", apply_ms);
    set("laplacian.apply_iterations", static_cast<double>(st.iterations));
    set("laplacian.apply_rounds", static_cast<double>(st.rounds));
  }

  // linalg: ordering and sparse LDL^T of the grounded Laplacian (vertex
  // n - 1 removed), and the L_G matvec.
  {
    std::vector<bcclap::linalg::Triplet> trip;
    const std::size_t m = n - 1;
    std::vector<double> diag(m, 0.0);
    for (const auto& e : g.edges()) {
      if (e.u < m) diag[e.u] += e.weight;
      if (e.v < m) diag[e.v] += e.weight;
      if (e.u < m && e.v < m) trip.push_back({e.u, e.v, -e.weight});
    }
    for (std::size_t i = 0; i < m; ++i) trip.push_back({i, i, diag[i]});
    const bcclap::linalg::CscSymmetricMatrix a(m, std::move(trip));
    auto t = Clock::now();
    const auto ord = bcclap::linalg::amd_order(a);
    set("linalg.amd_ms", ms_since(t));
    set("linalg.dense_tail_dim", static_cast<double>(m - ord.t));
    t = Clock::now();
    const auto f = bcclap::linalg::SparseLdltFactor::factor(ctx, a);
    set("linalg.factor_ms", ms_since(t));
    if (!f) throw std::runtime_error("probe: grounded Laplacian did not factor");
    set("linalg.fill_nnz", static_cast<double>(f->fill_nnz()));
    const Vec rhs_m(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(m));
    t = Clock::now();
    (void)f->solve(rhs_m);
    set("linalg.factor_solve_ms", ms_since(t));
    std::vector<double> times;
    for (int rep = 0; rep < 21; ++rep) {
      t = Clock::now();
      (void)bcclap::graph::apply_laplacian(ctx, g, b);
      times.push_back(ms_since(t));
    }
    set("linalg.matvec_ms", median(times));
  }
}

void LayerProbes::lp_layers(const Digraph* net_in) {
  Digraph small;
  if (!net_in) {
    Rng rng(mix_seed(opt_.seed, 0x1f));
    small = flow_network(10, 16, 6, 5, rng);
    net_in = &small;
  }
  const Digraph& net = *net_in;
  GramTimer gram(rt_->context());
  bcclap::flow::McmfOptions mo;
  mo.lp.weights = bcclap::lp::WeightMode::kLewis;
  mo.lp.gram_factory = gram.factory();
  mo.seed = mix_seed(opt_.seed, 0x2f);
  const auto t = Clock::now();
  const auto run = rt_->min_cost_max_flow(net, 0, net.num_vertices() - 1, mo);
  gram.report(*this, 1.0, seconds_since(t));
  set("lp.path_steps", static_cast<double>(run.result.path_steps));
  set("lp.newton_steps", static_cast<double>(run.result.newton_steps));
  set("flow.retries", static_cast<double>(run.result.retries));
  leverage(net);
}

void LayerProbes::leverage(const Digraph& net) {
  const auto m = bcclap::graph::incidence(net, 0).to_dense();
  const auto t = Clock::now();
  (void)bcclap::lp::leverage_scores_exact(rt_->context(), m);
  set("lp.leverage_ms", ms_since(t));
}

void LayerProbes::service_layers(const Graph& g, double eps) {
  bcclap::service::ServiceOptions so;
  so.workers = 2;
  so.runtime_threads = 1;
  so.factor_cache_bytes = std::size_t{1} << 30;
  bcclap::service::SolverService svc(so);
  Rng rng(mix_seed(opt_.seed, 0x3f));
  std::vector<Vec> pool;
  for (int i = 0; i < 3; ++i) pool.push_back(rhs(g.num_vertices(), rng));
  const std::uint64_t seeds[2] = {mix_seed(opt_.seed, 0x4f), mix_seed(opt_.seed, 0x5f)};
  std::vector<double> wait, serve;
  std::size_t high_water = 0;
  std::mutex mu;
  auto client = [&](std::size_t c) {
    for (std::size_t i = 0; i < 12; ++i) {
      bcclap::service::Request req;
      req.type = bcclap::service::RequestType::kSolve;
      req.seed = seeds[(i / 6 + c) % 2];
      req.eps = eps;
      req.graph = g;
      req.b = pool[(i + c) % pool.size()];
      const auto t = Clock::now();
      auto sub = svc.submit(std::move(req));
      if (!sub.accepted()) continue;
      const auto& reply = sub.reply->wait();
      const double latency = seconds_since(t);
      std::lock_guard<std::mutex> lock(mu);
      wait.push_back(latency - reply.stats.wall_seconds);
      serve.push_back(reply.stats.wall_seconds);
      high_water = std::max(high_water, svc.factor_cache()->resident_bytes());
    }
  };
  std::thread a(client, 0), b(client, 1);
  a.join();
  b.join();
  svc.shutdown();
  set_service(svc.stats(), median(wait), median(serve), high_water);
}

void LayerProbes::set_service(const bcclap::service::ServiceStats& stats,
                              double queue_wait_s, double serve_s,
                              std::size_t cache_high_water_bytes) {
  const double lookups = static_cast<double>(stats.cache.hits + stats.cache.misses);
  set("core.cache_hit_ratio",
      lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0);
  set("core.cache_evictions", static_cast<double>(stats.cache.evictions));
  set("core.resident_high_water_mb",
      static_cast<double>(cache_high_water_bytes) / (1024.0 * 1024.0));
  set("service.queue_wait_ms", 1e3 * queue_wait_s);
  set("service.serve_ms", 1e3 * serve_s);
  set("service.coalesced_panels", static_cast<double>(stats.coalesced_panels));
  set("service.warm_admissions", static_cast<double>(stats.warm_admissions));
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    bcclap::RuntimeOptions ro;
    ro.threads = 1;
    ro.seed = static_cast<std::uint64_t>(rep);
    const auto t = Clock::now();
    bcclap::Runtime rt(ro);
    times.push_back(ms_since(t));
  }
  set("service.runtime_build_ms", median(times));
}

void LayerProbes::emit(Outcome& out) const {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw std::logic_error("per-layer metric not measured: " + name);
    }
    out.add(name, it->second, unit);
  }
}

}  // namespace perfbench
