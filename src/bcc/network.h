// Bulk-synchronous simulator for the Broadcast CONGEST and Broadcast
// Congested Clique models (Section 2.1).
//
// Semantics enforced:
//  - computation proceeds in synchronous supersteps; in one superstep every
//    node submits the messages it wants to broadcast;
//  - a node broadcasting a total of `b` bits consumes ceil(b / B) rounds
//    (one B-bit broadcast per round); nodes broadcast in parallel, so the
//    superstep costs max over nodes of that quantity;
//  - broadcast constraint: a message is delivered identically to all
//    recipients — in BC mode the node's neighbours in the communication
//    graph, in BCC mode every other node;
//  - internal computation is free (the models allow unlimited local work).
//
// This bulk-synchronous formulation is round-exact for the algorithms in
// the paper: they are described in phases where each vertex broadcasts a
// bounded number of messages per phase, which is precisely the max-over-
// nodes cost the simulator charges.
//
// Delivery is zero-copy, mirroring the broadcast constraint itself: a
// superstep copies every outbox message exactly once, into one
// sender-ordered arena owned by the returned Delivery. Node v's inbox is a
// view over that arena that walks v's senders in ascending id order (the
// active senders other than v in BCC mode, v's sorted neighbours in BC
// mode) and yields (sender, const Message&) pairs. Lifetime rule: an inbox
// view, its iterators and the Message references it yields are valid while
// the Delivery that produced them lives. The Delivery owns its arena and
// shares the network's topology, so it may outlive both the outboxes
// passed to exchange() and the Network itself.
//
// Execution is thread-parallel where there is work to fan out: per-node
// outbox computation (run_superstep) runs across the workers of the
// network's execution context (common/context.h — the view of the
// bcclap::Runtime the network was built under), and recipients may read
// their inbox views concurrently. Delivery is deterministic — inboxes are
// ordered by sender id and the max-over-nodes round charge is
// order-independent — so a 1-worker and an N-worker configuration of the
// same Runtime produce byte-identical traffic and equal round accounting
// (enforced by tests/test_network_determinism.cpp and, across concurrent
// Runtimes, tests/test_runtime.cpp; tests/test_golden_bytes.cpp pins the
// bytes themselves). Downstream layers (spanner,
// sparsifier) reach the same context through context(), so one Runtime's
// pipeline never touches another's pool.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bcc/message.h"
#include "bcc/round_accountant.h"
#include "common/context.h"
#include "graph/graph.h"

namespace bcclap::bcc {

enum class Model {
  kBroadcastCongest,         // deliver along communication-graph edges
  kBroadcastCongestedClique, // deliver to everyone
};

// A BC communication graph's sorted neighbour lists (bcc/network.cpp).
struct Topology;

// One delivered message: its sender and a reference into the arena of
// the Delivery it came from.
struct Received {
  std::size_t sender;
  const Message& message;
};

// The traffic of one superstep: every message once, in sender order, plus
// the per-recipient inbox views over it.
class Delivery {
 public:
  class Inbox {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Received;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Received;

      iterator() = default;
      Received operator*() const { return {*sender_, arena_[msg_]}; }
      iterator& operator++() {
        if (++msg_ == msg_end_) {
          ++sender_;
          settle();
        }
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.sender_ == b.sender_ && a.msg_ == b.msg_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return !(a == b);
      }

     private:
      friend class Inbox;
      iterator(const Inbox& in, const std::size_t* sender)
          : arena_(in.arena_), offsets_(in.offsets_), sender_(sender),
            last_(in.last_), skip_(in.skip_) {
        settle();
      }
      // Advances to the first sender at or after sender_ that is not the
      // recipient itself and has something to say.
      void settle() {
        for (; sender_ != last_; ++sender_) {
          const std::size_t s = *sender_;
          if (s == skip_ || offsets_[s] == offsets_[s + 1]) continue;
          msg_ = offsets_[s];
          msg_end_ = offsets_[s + 1];
          return;
        }
        msg_ = msg_end_ = 0;
      }

      const Message* arena_ = nullptr;
      const std::size_t* offsets_ = nullptr;
      const std::size_t* sender_ = nullptr;
      const std::size_t* last_ = nullptr;
      std::size_t skip_ = 0;
      std::size_t msg_ = 0;
      std::size_t msg_end_ = 0;
    };

    iterator begin() const { return {*this, first_}; }
    iterator end() const { return {*this, last_}; }
    // Number of messages delivered to this recipient.
    std::size_t size() const;
    bool empty() const { return begin() == end(); }

   private:
    friend class Delivery;
    Inbox(const Delivery& d, const std::size_t* first, const std::size_t* last,
          std::size_t skip)
        : arena_(d.arena_.data()), offsets_(d.offsets_.data()), first_(first),
          last_(last), skip_(skip) {}

    // Views into the Delivery's heap buffers (stable across a move of the
    // Delivery object).
    const Message* arena_;
    const std::size_t* offsets_;
    const std::size_t* first_;  // candidate senders, ascending
    const std::size_t* last_;
    std::size_t skip_;  // the recipient in BCC mode, else kNoSkip
  };

  // Iteration over the n inboxes in node order: delivery[0], delivery[1],
  // ...
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Inbox;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Inbox;

    Inbox operator*() const { return (*d_)[v_]; }
    iterator& operator++() {
      ++v_;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.v_ == b.v_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    friend class Delivery;
    iterator(const Delivery* d, std::size_t v) : d_(d), v_(v) {}
    const Delivery* d_;
    std::size_t v_;
  };

  // Number of nodes (inboxes).
  std::size_t size() const { return offsets_.size() - 1; }
  Inbox operator[](std::size_t v) const;
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  friend class Network;
  static constexpr std::size_t kNoSkip =
      std::numeric_limits<std::size_t>::max();

  // arena_[offsets_[s] .. offsets_[s + 1]): sender s's messages in outbox
  // order.
  std::vector<Message> arena_;
  std::vector<std::size_t> offsets_{0};
  // BCC mode: the senders with a non-empty outbox, ascending.
  std::vector<std::size_t> active_;
  // BC mode: the communication graph; null in BCC mode.
  std::shared_ptr<const Topology> topology_;
};

class Network {
 public:
  // BC network over the topology of `g` (the usual setting: the input graph
  // is also the communication graph), executing on `ctx`'s worker pool.
  // Throws std::invalid_argument if bandwidth_bits < 1.
  Network(Model model, const graph::Graph& g, std::int64_t bandwidth_bits,
          const common::Context& ctx);
  // BCC network over n nodes (no topology needed). Throws
  // std::invalid_argument for Model::kBroadcastCongest, which needs a
  // communication graph, or if bandwidth_bits < 1.
  Network(Model model, std::size_t n, std::int64_t bandwidth_bits,
          const common::Context& ctx);

  Model model() const { return model_; }
  std::size_t num_nodes() const { return n_; }
  std::int64_t bandwidth() const { return bandwidth_; }

  // The execution context this network (and every layer running on it)
  // dispatches parallel work through.
  const common::Context& context() const { return ctx_; }

  // Runs one superstep: outboxes[v] are the messages node v broadcasts
  // (possibly empty). Returns the delivery: delivery[v] is the inbox view
  // of v, ordered by sender id. Charges rounds to `label`. Throws
  // std::invalid_argument unless outboxes.size() == num_nodes().
  Delivery exchange(const std::vector<std::vector<Message>>& outboxes,
                    const std::string& label);

  // Per-node local computation for run_superstep: node v's compute returns
  // the messages v broadcasts this superstep. Must only write state owned
  // by v (the engine runs nodes concurrently); stateful shared resources —
  // sequential RNG streams in particular — belong outside the compute, not
  // inside it.
  using ComputeFn = std::function<std::vector<Message>(std::size_t node)>;

  // Superstep driver: fans compute(v) out across the worker pool for every
  // node, then exchanges the resulting outboxes. Callers hand the engine
  // their per-node compute instead of looping over nodes themselves.
  Delivery run_superstep(const ComputeFn& compute, const std::string& label);

  // Charges rounds without message traffic (used for sub-protocols whose
  // cost is known analytically, e.g. the <= k-1 rounds of propagating a
  // cluster-marking bit down the cluster tree in Step 1).
  void charge(const std::string& label, std::int64_t rounds) {
    accountant_.charge(label, rounds);
  }

  const RoundAccountant& accountant() const { return accountant_; }
  RoundAccountant& accountant() { return accountant_; }

  // Default bandwidth for an n-node network: B = 2 ceil(log2 n) + 2, the
  // Theta(log n) of the model definition. The formula degenerates below
  // n = 2 (B = 2 at n = 1, undefined at n = 0 — too narrow for the
  // minimal flag + two ids + weight-bit protocol message); tiny networks
  // pin B = 4, so every n >= 0 is accepted and B is always >= 4.
  static std::int64_t default_bandwidth(std::size_t n);

 private:
  Model model_;
  std::size_t n_;
  std::int64_t bandwidth_;
  common::Context ctx_;
  // BC mode only: the communication graph, shared with every Delivery.
  std::shared_ptr<const Topology> topology_;
  RoundAccountant accountant_;
};

}  // namespace bcclap::bcc
