#include "spanner/probabilistic_spanner.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "common/encoding.h"
#include "common/context.h"
#include "spanner/connect.h"

namespace bcclap::spanner {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Wire format of the per-step broadcasts. We model them as bcc::Message
// field sequences; `bits_w` is the (global) weight width, so one message is
// O(log n + log W) bits exactly as in Lemma 3.2.
//
// Step 2 message:    [has(1)] [joined_cluster(id)] [u(id)] [w(bits_w)]
//                    or [has=0] meaning (bot, W_v = inf).
// Step 3/4 message:  [cluster X(id)] [has(1)] [u(id)] [w(bits_w)]
struct Decoded {
  bool has = false;
  std::size_t cluster = kNone;
  std::size_t u = kNone;
  double w = kInf;
};

// One Connect invocation planned for a node this superstep: the target
// cluster (kNone in step 2, where the broadcast carries the joined cluster
// instead) and the candidate set, pre-sorted in Connect order.
struct PlannedGroup {
  std::size_t cluster = kNone;
  std::vector<Candidate> cands;
};

// Candidates tagged with their target cluster, in incidence order.
using TaggedCandidates = std::vector<std::pair<std::size_t, Candidate>>;

// One group per target cluster, ascending cluster id (the broadcast
// order); the stable sort keeps each group's candidates in incidence
// order.
std::vector<PlannedGroup> group_by_cluster(TaggedCandidates& tagged) {
  std::stable_sort(
      tagged.begin(), tagged.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<PlannedGroup> groups;
  for (const auto& [x, c] : tagged) {
    if (groups.empty() || groups.back().cluster != x) {
      groups.push_back({x, {}});
    }
    groups.back().cands.push_back(c);
  }
  return groups;
}

// Each superstep of the decider side runs as three engine phases:
//
//   A. build  (parallel)  — every node assembles and sorts its candidate
//      groups. Reads only pass-stable state (cluster membership, marks,
//      thresholds and decisions from *previous* steps), so nodes fan out
//      across the worker pool freely.
//   B. sample — nodes replay Connect over the pre-sorted candidates. This
//      is the only phase that consumes the existence oracle. For stateful
//      oracles (sequential RNG streams) the nodes are walked in id order,
//      which pins the oracle call order and makes runs byte-identical
//      regardless of thread count. When the caller declares the oracle
//      *pure* (opt.pure_oracle — the sparsifier's survival coins), the
//      decide step fans out across the worker pool instead: the oracle's
//      answers do not depend on call order, and within one superstep every
//      edge has a unique decider, so decision/belief writes are per-edge
//      disjoint. Either way a sequential commit step then appends to
//      F+/F- in exact (node, group, candidate) order, so both paths
//      produce identical results.
//   C. broadcast + deduce — the planned messages go through
//      Network::run_superstep (parallel encode + exchange), and recipients
//      apply the Section 3.1 deduction rules concurrently: receiver u only
//      writes its own belief slots and its own threshold table, so the
//      fan-out is race-free.
//
// Phase A/B splitting is exact, not approximate: within one superstep each
// edge has a unique decider (step 2 deciders sit in unmarked clusters and
// their candidates in marked ones; steps 3/4 order the two sides by
// cluster id), so no node's candidate set depends on a decision taken by
// another node in the same superstep.
class SpannerRun {
 public:
  SpannerRun(const graph::Graph& g, const ProbabilisticSpannerOptions& opt,
             const ExistenceOracle& oracle, rng::Stream& mark_stream,
             bcc::Network& net)
      : g_(g),
        oracle_(oracle),
        mark_stream_(mark_stream),
        net_(net),
        n_(g.num_vertices()),
        m_(g.num_edges()),
        k_(opt.k),
        pure_oracle_(opt.pure_oracle) {
    avail_ = opt.available.empty() ? std::vector<bool>(m_, true)
                                   : opt.available;
    weights_.resize(m_);
    for (std::size_t e = 0; e < m_; ++e) {
      weights_[e] =
          opt.weights.empty() ? g_.edge(e).weight : opt.weights[e];
    }
    double wmax = 1.0;
    for (std::size_t e = 0; e < m_; ++e)
      if (avail_[e]) wmax = std::max(wmax, weights_[e]);
    bits_w_ = enc::bit_width_u64(static_cast<std::uint64_t>(
        std::llround(wmax)));
    decision_.assign(m_, EdgeDecision::kUndecided);
    in_f_plus_.assign(m_, false);
    belief_.assign(m_, {EdgeDecision::kUndecided, EdgeDecision::kUndecided});
    cluster_.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) cluster_[v] = v;
    marked_.assign(n_, false);
    w_threshold_.assign(n_, kInf);
    w_seen_.assign(m_, {kInf, kInf});
  }

  ProbabilisticSpannerResult run() {
    const std::int64_t start = net_.accountant().mark();
    const double mark_prob =
        std::pow(static_cast<double>(n_), -1.0 / static_cast<double>(k_));

    for (std::size_t phase = 1; phase < k_; ++phase) {
      step1_mark_clusters(mark_prob, phase);
      step2_connect_to_marked();
      step3_connect_unmarked(/*lower_ids=*/true);
      step3_connect_unmarked(/*lower_ids=*/false);
      apply_pending_joins();
    }
    step4_final_joining();

    result_.rounds = net_.accountant().since(start);
    check_belief_consistency();
    return std::move(result_);
  }

 private:
  // --- shared helpers ---------------------------------------------------

  double weight(graph::EdgeId e) const { return weights_[e]; }

  bool edge_usable(graph::EdgeId e) const {
    return avail_[e] && decision_[e] != EdgeDecision::kDeleted;
  }

  // Result of replaying Connect over one candidate group: the accepted
  // candidate (if any) plus the edges the group decided out of existence,
  // in candidate order. Buffered per group so the decide step can run
  // concurrently and the commit step can replay the sequential append
  // order exactly.
  struct GroupDecision {
    std::optional<Candidate> accepted;
    std::vector<graph::EdgeId> deleted;
  };

  void record_decider_belief(graph::VertexId v, graph::EdgeId e) {
    belief_[e][side_of(e, v)] = decision_[e];
  }

  std::size_t side_of(graph::EdgeId e, graph::VertexId v) const {
    return g_.edge(e).u == v ? 0 : 1;
  }

  // Commit-side F+ bookkeeping only; the decider's belief was already
  // recorded by decide_node (decide writes decisions/beliefs, commit
  // writes F+/F-).
  void accept_edge(graph::VertexId v, const Candidate& c) {
    if (!in_f_plus_[c.e]) {
      in_f_plus_[c.e] = true;
      result_.f_plus.push_back(c.e);
      result_.out_vertex.push_back(v);
    }
  }

  void note_rejections(graph::VertexId v, const std::vector<Candidate>& ns) {
    for (const Candidate& c : ns) record_decider_belief(v, c.e);
  }

  bool in_unmarked_cluster(graph::VertexId v) const {
    return cluster_[v] != kNone && !marked_[cluster_[v]];
  }
  bool in_marked_cluster(graph::VertexId v) const {
    return cluster_[v] != kNone && marked_[cluster_[v]];
  }

  // --- message encoding --------------------------------------------------

  bcc::Message encode_step2(const std::optional<Candidate>& acc,
                            graph::VertexId /*v*/) const {
    bcc::Message msg;
    if (!acc) {
      msg.push_flag(false);
      return msg;
    }
    msg.push_flag(true);
    msg.push_id(cluster_[acc->u], n_);
    msg.push_id(acc->u, n_);
    msg.push(static_cast<std::uint64_t>(std::llround(acc->weight)), bits_w_);
    return msg;
  }

  Decoded decode_step2(const bcc::Message& msg) const {
    Decoded d;
    d.has = msg.field(0) != 0;
    if (d.has) {
      d.cluster = msg.field(1);
      d.u = msg.field(2);
      d.w = static_cast<double>(msg.field(3));
    }
    return d;
  }

  bcc::Message encode_cluster_msg(std::size_t x,
                                  const std::optional<Candidate>& acc) const {
    bcc::Message msg;
    msg.push_id(x, n_);
    if (!acc) {
      msg.push_flag(false);
      return msg;
    }
    msg.push_flag(true);
    msg.push_id(acc->u, n_);
    msg.push(static_cast<std::uint64_t>(std::llround(acc->weight)), bits_w_);
    return msg;
  }

  Decoded decode_cluster_msg(const bcc::Message& msg) const {
    Decoded d;
    d.cluster = msg.field(0);
    d.has = msg.field(1) != 0;
    if (d.has) {
      d.u = msg.field(2);
      d.w = static_cast<double>(msg.field(3));
    }
    return d;
  }

  // --- deduction (the receiving side of Section 3.1) ---------------------
  //
  // Receiver u, sender v, edge e = (u, v), u eligible (u in the candidate
  // set N that v ran Connect over). The three rules of the paper:
  //   1. v broadcast bot           -> (u,v) deleted
  //   2. accepted u' with (w', u') after (w, u) in candidate order
  //                                -> (u,v) deleted
  //      (the sort would have reached u first, so u was sampled and failed)
  //   3. accepted u' == u          -> (u,v) exists
  //   otherwise (u' before u)      -> no information, edge stays undecided.
  void deduce(graph::VertexId u, graph::VertexId /*v*/, graph::EdgeId e,
              const Decoded& d) {
    auto& slot = belief_[e][side_of(e, u)];
    if (!d.has) {
      slot = EdgeDecision::kDeleted;
      return;
    }
    if (d.u == u) {
      slot = EdgeDecision::kExists;
      return;
    }
    const Candidate mine{u, e, weight(e)};
    const Candidate theirs{d.u, kNone, d.w};
    if (candidate_less(mine, theirs)) slot = EdgeDecision::kDeleted;
    // else: u' precedes u, nothing learned.
  }

  // --- step 1: cluster marking -------------------------------------------

  void step1_mark_clusters(double mark_prob, std::size_t phase) {
    std::fill(marked_.begin(), marked_.end(), false);
    // Marking bits are drawn center-by-center in id order; this ordering is
    // what lets the a-priori sparsifier replay the identical bit stream
    // (Lemma 3.3's shared-randomness assumption). Sequential by design.
    for (std::size_t c = 0; c < n_; ++c) {
      if (!is_active_center(c)) continue;
      marked_[c] = mark_stream_.bernoulli(mark_prob);
    }
    // The center pushes the bit down its cluster tree: depth <= phase.
    net_.charge("spanner/step1", static_cast<std::int64_t>(phase));
  }

  bool is_active_center(std::size_t c) const {
    // A center is active if some vertex belongs to it. Cluster ids are
    // center vertex ids, so scan is O(n) overall via the cached counts.
    return center_population_cache_.empty()
               ? cluster_[c] == c
               : center_population_cache_[c] > 0;
  }

  void refresh_center_population() {
    center_population_cache_.assign(n_, 0);
    for (std::size_t v = 0; v < n_; ++v)
      if (cluster_[v] != kNone) ++center_population_cache_[cluster_[v]];
  }

  // Replays Connect over one node's pre-sorted groups, writing decisions
  // into decision_ and the decider side of belief_ (per-edge disjoint
  // within a superstep: every edge has a unique decider) and buffering the
  // F+/F- bookkeeping in the returned GroupDecisions. Runs concurrently
  // for different nodes on the pure-oracle path; the stateful path calls
  // it in node id order, which pins the oracle stream.
  std::vector<GroupDecision> decide_node(graph::VertexId v,
                                         std::vector<PlannedGroup>& groups) {
    std::vector<GroupDecision> out(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      GroupDecision& gd = out[gi];
      ConnectResult res =
          connect(std::move(groups[gi].cands), [&](graph::EdgeId e) {
            if (decision_[e] == EdgeDecision::kExists) return true;
            assert(decision_[e] == EdgeDecision::kUndecided);
            const bool exists = oracle_(e);
            decision_[e] =
                exists ? EdgeDecision::kExists : EdgeDecision::kDeleted;
            if (!exists) gd.deleted.push_back(e);
            return exists;
          });
      note_rejections(v, res.rejected);
      if (res.accepted) record_decider_belief(v, res.accepted->e);
      gd.accepted = res.accepted;
    }
    return out;
  }

  // Phase B dispatcher: decide every node's groups (sequentially for
  // stateful oracles, fanned out for pure ones), then commit F-/F+
  // appends and invoke per_group(v, cluster, accepted) in exact
  // (node, group) order on the calling thread. The commit order — and the
  // first-accept dedup in accept_edge — is what keeps the two decide
  // strategies result-identical.
  template <typename PerGroup>
  void phase_b(std::vector<std::vector<PlannedGroup>>& groups,
               PerGroup&& per_group) {
    std::vector<std::vector<GroupDecision>> decided(n_);
    if (pure_oracle_) {
      net_.context().parallel_for(0, n_, [&](std::size_t v) {
        decided[v] = decide_node(v, groups[v]);
      });
    } else {
      for (std::size_t v = 0; v < n_; ++v) {
        decided[v] = decide_node(v, groups[v]);
      }
    }
    for (std::size_t v = 0; v < n_; ++v) {
      for (std::size_t gi = 0; gi < decided[v].size(); ++gi) {
        GroupDecision& gd = decided[v][gi];
        for (graph::EdgeId e : gd.deleted) result_.f_minus.push_back(e);
        if (gd.accepted) accept_edge(v, *gd.accepted);
        per_group(v, groups[v][gi].cluster, gd.accepted);
      }
    }
  }

  // --- step 2: connect to marked clusters ---------------------------------

  void step2_connect_to_marked() {
    std::fill(w_threshold_.begin(), w_threshold_.end(), kInf);
    pending_join_.assign(n_, kNone);

    // Phase A (parallel): candidates of each unmarked-cluster node into
    // marked clusters — one group per eligible node (its broadcast carries
    // the joined cluster, so the group has no target cluster of its own).
    std::vector<std::vector<PlannedGroup>> groups(n_);
    net_.context().parallel_for(0, n_, [&](std::size_t v) {
      if (!in_unmarked_cluster(v)) return;
      PlannedGroup grp;
      for (graph::EdgeId e : g_.incident(v)) {
        if (!edge_usable(e)) continue;
        const graph::VertexId u = g_.other_endpoint(e, v);
        if (in_marked_cluster(u)) grp.cands.push_back({u, e, weight(e)});
      }
      groups[v].push_back(std::move(grp));
    });

    // Phase B: the only oracle phase.
    std::vector<std::vector<bcc::Message>> planned(n_);
    phase_b(groups, [&](graph::VertexId v, std::size_t /*cluster*/,
                        const std::optional<Candidate>& acc) {
      if (acc) {
        w_threshold_[v] = acc->weight;
        pending_join_[v] = cluster_[acc->u];
      }
      planned[v].push_back(encode_step2(acc, v));
    });

    // Phase C: broadcast through the superstep driver, deduce in parallel.
    const auto inboxes = net_.run_superstep(
        [&planned](std::size_t v) { return std::move(planned[v]); },
        "spanner/step2");
    net_.context().parallel_for(0, n_, [&](std::size_t u) {
      for (const auto& rm : inboxes[u]) {
        const auto eid = g_.find_edge(u, rm.sender);
        if (!eid) continue;
        const Decoded d = decode_step2(rm.message);
        // Every neighbour learns W_v (needed for step-3 eligibility).
        // Receiver u owns its side of the slot; no other node touches it.
        w_seen_[*eid][side_of(*eid, u)] = d.has ? d.w : kInf;
        // Deduction applies only if u was in v's candidate set: u in a
        // marked cluster and the edge not already settled as deleted.
        if (!in_marked_cluster(u)) continue;
        if (!avail_[*eid]) continue;
        if (belief_[*eid][side_of(*eid, u)] == EdgeDecision::kDeleted)
          continue;
        deduce(u, rm.sender, *eid, d);
      }
    });
  }

  // --- step 3: connections between unmarked clusters ----------------------

  void step3_connect_unmarked(bool lower_ids) {
    // Phase A (parallel): eligible candidates grouped by target cluster,
    // ascending cluster id (the broadcast order).
    std::vector<std::vector<PlannedGroup>> groups(n_);
    net_.context().parallel_for(0, n_, [&](std::size_t v) {
      if (!in_unmarked_cluster(v)) return;
      const std::size_t own = cluster_[v];
      TaggedCandidates tagged;
      for (graph::EdgeId e : g_.incident(v)) {
        if (!edge_usable(e)) continue;
        if (weight(e) > w_threshold_[v]) continue;
        const graph::VertexId u = g_.other_endpoint(e, v);
        if (!in_unmarked_cluster(u)) continue;
        const std::size_t x = cluster_[u];
        if (x == own) continue;
        if (lower_ids ? (x > own) : (x < own)) continue;
        tagged.push_back({x, {u, e, weight(e)}});
      }
      groups[v] = group_by_cluster(tagged);
    });

    // Phase B: Connect per group in node, then cluster order.
    std::vector<std::vector<bcc::Message>> planned(n_);
    phase_b(groups, [&](graph::VertexId v, std::size_t cluster,
                        const std::optional<Candidate>& acc) {
      planned[v].push_back(encode_cluster_msg(cluster, acc));
    });

    // Phase C: broadcast + parallel deduction.
    const auto inboxes = net_.run_superstep(
        [&planned](std::size_t v) { return std::move(planned[v]); },
        lower_ids ? "spanner/step3.1" : "spanner/step3.2");
    net_.context().parallel_for(0, n_, [&](std::size_t u) {
      if (!in_unmarked_cluster(u)) return;
      for (const auto& rm : inboxes[u]) {
        const Decoded d = decode_cluster_msg(rm.message);
        if (d.cluster != cluster_[u]) continue;
        const auto eid = g_.find_edge(u, rm.sender);
        if (!eid || !avail_[*eid]) continue;
        // Eligibility: w(u,v) <= W_v, learned from v's step-2 broadcast.
        if (weight(*eid) > w_seen_[*eid][side_of(*eid, u)]) continue;
        if (belief_[*eid][side_of(*eid, u)] == EdgeDecision::kDeleted)
          continue;
        deduce(u, rm.sender, *eid, d);
      }
    });
  }

  void apply_pending_joins() {
    for (std::size_t v = 0; v < n_; ++v) {
      if (!in_unmarked_cluster(v)) continue;
      cluster_[v] = pending_join_[v];  // kNone if v failed to join
    }
    refresh_center_population();
  }

  // --- step 4: final joining to R_k clusters -------------------------------

  void step4_final_joining() {
    // Substep 4.1: unclustered vertices; 4.2: clustered, lower ids;
    // 4.3: clustered, higher ids.
    for (int sub = 1; sub <= 3; ++sub) {
      // Phase A (parallel).
      std::vector<std::vector<PlannedGroup>> groups(n_);
      net_.context().parallel_for(0, n_, [&](std::size_t v) {
        const bool clustered = cluster_[v] != kNone;
        if (sub == 1 && clustered) return;
        if (sub != 1 && !clustered) return;
        TaggedCandidates tagged;
        for (graph::EdgeId e : g_.incident(v)) {
          if (!edge_usable(e)) continue;
          const graph::VertexId u = g_.other_endpoint(e, v);
          if (cluster_[u] == kNone) continue;
          const std::size_t x = cluster_[u];
          if (clustered) {
            if (x == cluster_[v]) continue;
            if (sub == 2 && x > cluster_[v]) continue;
            if (sub == 3 && x < cluster_[v]) continue;
          }
          tagged.push_back({x, {u, e, weight(e)}});
        }
        groups[v] = group_by_cluster(tagged);
      });

      // Phase B.
      std::vector<std::vector<bcc::Message>> planned(n_);
      phase_b(groups, [&](graph::VertexId v, std::size_t cluster,
                          const std::optional<Candidate>& acc) {
        planned[v].push_back(encode_cluster_msg(cluster, acc));
      });

      // Phase C.
      const auto inboxes = net_.run_superstep(
          [&planned](std::size_t v) { return std::move(planned[v]); },
          "spanner/step4");
      net_.context().parallel_for(0, n_, [&](std::size_t u) {
        if (cluster_[u] == kNone) return;
        for (const auto& rm : inboxes[u]) {
          const Decoded d = decode_cluster_msg(rm.message);
          if (d.cluster != cluster_[u]) continue;
          const auto eid = g_.find_edge(u, rm.sender);
          if (!eid || !avail_[*eid]) continue;
          if (belief_[*eid][side_of(*eid, u)] == EdgeDecision::kDeleted)
            continue;
          deduce(u, rm.sender, *eid, d);
        }
      });
    }
  }

  // --- end-of-run verification ---------------------------------------------

  void check_belief_consistency() {
    for (std::size_t e = 0; e < m_; ++e) {
      if (!avail_[e]) continue;
      if (decision_[e] == EdgeDecision::kUndecided) {
        if (belief_[e][0] != EdgeDecision::kUndecided ||
            belief_[e][1] != EdgeDecision::kUndecided) {
          result_.deduction_consistent = false;
        }
        continue;
      }
      if (belief_[e][0] != decision_[e] || belief_[e][1] != decision_[e]) {
        result_.deduction_consistent = false;
      }
    }
  }

  const graph::Graph& g_;
  const ExistenceOracle& oracle_;
  rng::Stream& mark_stream_;
  bcc::Network& net_;
  std::size_t n_;
  std::size_t m_;
  std::size_t k_;
  bool pure_oracle_ = false;
  int bits_w_ = 1;

  std::vector<bool> avail_;
  std::vector<double> weights_;
  std::vector<EdgeDecision> decision_;
  std::vector<bool> in_f_plus_;
  // belief_[e][side]: what each endpoint believes about e's existence,
  // maintained exclusively through own decisions and deductions. Each side
  // is written only by the endpoint owning it, so the receive fan-out never
  // races.
  std::vector<std::array<EdgeDecision, 2>> belief_;

  std::vector<std::size_t> cluster_;  // center id or kNone
  std::vector<bool> marked_;          // indexed by center id
  std::vector<std::size_t> pending_join_;
  std::vector<double> w_threshold_;  // W_v^(i), decider view
  // w_seen_[e][side]: W_v observed by the endpoint on `side` of e from the
  // other endpoint v's step-2 broadcast (e = find_edge(u, v), the edge
  // every read goes through). Each side is written only by its own
  // endpoint.
  std::vector<std::array<double, 2>> w_seen_;
  std::vector<std::size_t> center_population_cache_;

  ProbabilisticSpannerResult result_;
};

}  // namespace

ProbabilisticSpannerResult spanner_with_probabilistic_edges(
    const graph::Graph& g, const ProbabilisticSpannerOptions& opt,
    const ExistenceOracle& oracle, rng::Stream& mark_stream,
    bcc::Network& net) {
  SpannerRun run(g, opt, oracle, mark_stream, net);
  return run.run();
}

}  // namespace bcclap::spanner
