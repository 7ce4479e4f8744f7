#include "bcc/network.h"

#include <algorithm>
#include <stdexcept>

#include "common/encoding.h"

namespace bcclap::bcc {

// Sorted, deduplicated neighbour lists of a BC communication graph in
// compressed form: v's neighbours are ids[offsets[v] .. offsets[v + 1]).
// The adjacency is symmetric, so it serves as both send and receive side.
struct Topology {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> ids;
};

namespace {

void check_bandwidth(std::int64_t bandwidth_bits) {
  if (bandwidth_bits < 1) {
    throw std::invalid_argument("Network: bandwidth must be >= 1 bit, got " +
                                std::to_string(bandwidth_bits));
  }
}

}  // namespace

std::int64_t Network::default_bandwidth(std::size_t n) {
  // The textbook B = 2 ceil(log2 n) + 2 degenerates below n = 2: it gives
  // 2 for n = 1 and is undefined for n = 0, too narrow for the minimal
  // [flag | id | id | weight-bit] protocol message (4 bits) to fit one
  // round. Tiny networks pin B = 4, the n = 2 value of the formula.
  if (n <= 2) return 4;
  return 2 * enc::id_bits(n) + 2;
}

Network::Network(Model model, const graph::Graph& g,
                 std::int64_t bandwidth_bits, const common::Context& ctx)
    : model_(model), n_(g.num_vertices()), bandwidth_(bandwidth_bits),
      ctx_(ctx) {
  check_bandwidth(bandwidth_);
  if (model_ != Model::kBroadcastCongest) return;
  auto topo = std::make_shared<Topology>();
  topo->offsets.reserve(n_ + 1);
  topo->offsets.push_back(0);
  for (std::size_t v = 0; v < n_; ++v) {
    // Sorted by neighbour, so parallel edges are adjacent and collapse.
    for (const graph::Neighbour& nb : g.neighbours(v)) {
      if (topo->ids.size() == topo->offsets.back() ||
          topo->ids.back() != nb.vertex) {
        topo->ids.push_back(nb.vertex);
      }
    }
    topo->offsets.push_back(topo->ids.size());
  }
  topology_ = std::move(topo);
}

Network::Network(Model model, std::size_t n, std::int64_t bandwidth_bits,
                 const common::Context& ctx)
    : model_(model), n_(n), bandwidth_(bandwidth_bits), ctx_(ctx) {
  if (model_ != Model::kBroadcastCongestedClique) {
    throw std::invalid_argument(
        "Network: a Broadcast CONGEST network needs a communication graph");
  }
  check_bandwidth(bandwidth_);
}

Delivery::Inbox Delivery::operator[](std::size_t v) const {
  if (topology_) {
    const std::size_t* ids = topology_->ids.data();
    return {*this, ids + topology_->offsets[v], ids + topology_->offsets[v + 1],
            kNoSkip};
  }
  return {*this, active_.data(), active_.data() + active_.size(), v};
}

std::size_t Delivery::Inbox::size() const {
  std::size_t count = 0;
  for (const std::size_t* s = first_; s != last_; ++s) {
    if (*s != skip_) count += offsets_[*s + 1] - offsets_[*s];
  }
  return count;
}

Delivery Network::exchange(const std::vector<std::vector<Message>>& outboxes,
                           const std::string& label) {
  if (outboxes.size() != n_) {
    throw std::invalid_argument(
        "Network::exchange: " + std::to_string(outboxes.size()) +
        " outboxes for a " + std::to_string(n_) + "-node network");
  }
  Delivery d;
  d.topology_ = topology_;
  d.offsets_.reserve(n_ + 1);
  // Cost: nodes broadcast in parallel; each node serializes its own
  // messages, one B-bit broadcast per round, so the superstep costs the
  // max over nodes — independent of the order nodes are visited in.
  std::int64_t rounds = 0;
  for (std::size_t s = 0; s < n_; ++s) {
    std::int64_t node_rounds = 0;
    for (const Message& msg : outboxes[s]) {
      node_rounds += enc::rounds_for_bits(msg.total_bits(), bandwidth_);
    }
    rounds = std::max(rounds, node_rounds);
    d.offsets_.push_back(d.offsets_.back() + outboxes[s].size());
    if (!topology_ && !outboxes[s].empty()) d.active_.push_back(s);
  }
  accountant_.charge(label, rounds);

  // Delivery: every message is copied once, into the sender-ordered arena
  // the inbox views walk.
  d.arena_.reserve(d.offsets_.back());
  for (const auto& outbox : outboxes) {
    d.arena_.insert(d.arena_.end(), outbox.begin(), outbox.end());
  }
  return d;
}

Delivery Network::run_superstep(const ComputeFn& compute,
                                const std::string& label) {
  std::vector<std::vector<Message>> outboxes(n_);
  // Grain 1: per-node compute is the heavyweight part of a superstep, so
  // every node is its own unit of work.
  ctx_.parallel_for(0, n_, [&](std::size_t v) { outboxes[v] = compute(v); });
  return exchange(outboxes, label);
}

}  // namespace bcclap::bcc
