#include "bcc/network.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "support/fixtures.h"

namespace bcclap::bcc {
namespace {

// Sender ids of one inbox view, in delivery order.
std::vector<std::size_t> senders(const Delivery::Inbox& inbox) {
  std::vector<std::size_t> out;
  for (const Received& rm : inbox) out.push_back(rm.sender);
  return out;
}

TEST(Message, FieldsAndBits) {
  Message m;
  m.push_flag(true).push_id(5, 16).push(100, 7);
  EXPECT_EQ(m.num_fields(), 3u);
  EXPECT_EQ(m.field(0), 1u);
  EXPECT_EQ(m.field(1), 5u);
  EXPECT_EQ(m.field(2), 100u);
  EXPECT_EQ(m.total_bits(), 1 + 4 + 7);
}

TEST(RoundAccountant, ChargesAndBreaksDown) {
  RoundAccountant acct;
  acct.charge("a", 3);
  acct.charge("b", 2);
  acct.charge("a", 1);
  EXPECT_EQ(acct.total(), 6);
  EXPECT_EQ(acct.total_for("a"), 4);
  EXPECT_EQ(acct.total_for("b"), 2);
  EXPECT_EQ(acct.total_for("missing"), 0);
  const auto mark = acct.mark();
  acct.charge_broadcast_bits("c", 33, 16);  // ceil(33/16) = 3
  EXPECT_EQ(acct.since(mark), 3);
  acct.reset();
  EXPECT_EQ(acct.total(), 0);
}

TEST(Network, BccDeliversToEveryone) {
  auto net = testsupport::bcc_net(4);
  std::vector<std::vector<Message>> out(4);
  out[1].push_back(Message().push_flag(true));
  const auto in = net.exchange(out, "step");
  EXPECT_TRUE(in[1].empty());  // no self-delivery
  for (std::size_t v : {0u, 2u, 3u}) {
    ASSERT_EQ(in[v].size(), 1u);
    EXPECT_EQ(senders(in[v]), std::vector<std::size_t>{1});
  }
  EXPECT_EQ(net.accountant().total(), 1);
}

TEST(Network, BcDeliversAlongEdgesOnly) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(4);
  out[1].push_back(Message().push_flag(false));
  const auto in = net.exchange(out, "step");
  EXPECT_EQ(in[0].size(), 1u);
  EXPECT_EQ(in[2].size(), 1u);
  EXPECT_TRUE(in[3].empty());  // not a neighbour of 1
}

TEST(Network, RoundsAreMaxOverNodes) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{3}, 8,
              testsupport::test_context());
  std::vector<std::vector<Message>> out(3);
  // Node 0 sends two 8-bit messages (2 rounds), node 1 one (1 round).
  out[0].push_back(Message().push(1, 8));
  out[0].push_back(Message().push(2, 8));
  out[1].push_back(Message().push(3, 8));
  net.exchange(out, "step");
  EXPECT_EQ(net.accountant().total(), 2);
}

TEST(Network, WideMessageCostsMultipleRounds) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{2}, 8,
              testsupport::test_context());
  std::vector<std::vector<Message>> out(2);
  out[0].push_back(Message().push(0, 20));  // 20 bits over B=8: 3 rounds
  net.exchange(out, "w");
  EXPECT_EQ(net.accountant().total(), 3);
}

TEST(Network, EmptySuperstepIsFree) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{3}, 8,
              testsupport::test_context());
  net.exchange(std::vector<std::vector<Message>>(3), "idle");
  EXPECT_EQ(net.accountant().total(), 0);
}

TEST(Network, DefaultBandwidthIsThetaLogN) {
  EXPECT_EQ(Network::default_bandwidth(1024), 2 * 10 + 2);
  EXPECT_GE(Network::default_bandwidth(2), 4);
}

// Regression: B = 2 ceil(log2 n) + 2 degenerates for n <= 2 (log2 n <= 1).
// Tiny networks must clamp to B >= 4 — a minimal [flag | id | id | w-bit]
// protocol message — and every n >= 0 must be accepted.
TEST(Network, DefaultBandwidthTinyNetworks) {
  EXPECT_EQ(Network::default_bandwidth(0), 4);
  EXPECT_EQ(Network::default_bandwidth(1), 4);
  EXPECT_EQ(Network::default_bandwidth(2), 4);
  EXPECT_EQ(Network::default_bandwidth(3), 6);
  EXPECT_EQ(Network::default_bandwidth(4), 6);
  // Monotone nondecreasing and always >= 4.
  std::int64_t prev = 0;
  for (std::size_t n = 0; n <= 300; ++n) {
    const std::int64_t b = Network::default_bandwidth(n);
    EXPECT_GE(b, 4) << n;
    EXPECT_GE(b, prev) << n;
    prev = b;
  }
}

TEST(Network, SingleNodeBccExchange) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{1},
              Network::default_bandwidth(1), testsupport::test_context());
  std::vector<std::vector<Message>> out(1);
  out[0].push_back(Message().push_flag(true));
  const auto in = net.exchange(out, "solo");
  // No other node exists; the broadcast still costs its round.
  ASSERT_EQ(in.size(), 1u);
  EXPECT_TRUE(in[0].empty());
  EXPECT_EQ(net.accountant().total(), 1);
}

TEST(Network, TwoNodeExchangeFitsMinimalMessageInOneRound) {
  // flag + id(1) + id(1) + 1-bit weight = 4 bits fits B = 4 exactly.
  Network net(Model::kBroadcastCongestedClique, std::size_t{2},
              Network::default_bandwidth(2), testsupport::test_context());
  std::vector<std::vector<Message>> out(2);
  out[0].push_back(
      Message().push_flag(true).push_id(1, 2).push_id(0, 2).push(1, 1));
  const auto in = net.exchange(out, "pair");
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(senders(in[1]), std::vector<std::size_t>{0});
  EXPECT_EQ((*in[1].begin()).message.total_bits(), 4);
  EXPECT_EQ(net.accountant().total(), 1);
}

TEST(Network, TwoNodeBcExchange) {
  graph::Graph g(2);
  g.add_edge(0, 1, 1.0);
  auto net = testsupport::bc_net(g);
  std::vector<std::vector<Message>> out(2);
  out[0].push_back(Message().push_id(0, 2));
  out[1].push_back(Message().push_id(1, 2));
  const auto in = net.exchange(out, "pair");
  ASSERT_EQ(in[0].size(), 1u);
  EXPECT_EQ(senders(in[0]), std::vector<std::size_t>{1});
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(senders(in[1]), std::vector<std::size_t>{0});
}

TEST(Network, MessagesOrderedBySender) {
  Network net(Model::kBroadcastCongestedClique, std::size_t{4}, 32,
              testsupport::test_context());
  std::vector<std::vector<Message>> out(4);
  out[3].push_back(Message().push(3, 4));
  out[0].push_back(Message().push(0, 4));
  out[2].push_back(Message().push(2, 4));
  const auto in = net.exchange(out, "step");
  ASSERT_EQ(in[1].size(), 3u);
  EXPECT_EQ(senders(in[1]), (std::vector<std::size_t>{0, 2, 3}));
}

TEST(Message, RejectsOutOfRangeWidths) {
  Message m;
  EXPECT_THROW(m.push(0, 0), std::invalid_argument);
  EXPECT_THROW(m.push(0, -3), std::invalid_argument);
  EXPECT_THROW(m.push(0, 65), std::invalid_argument);
  EXPECT_EQ(m.num_fields(), 0u);
  m.push(~std::uint64_t{0}, 64);  // a full 64-bit field fits exactly
  EXPECT_EQ(m.total_bits(), 64);
}

TEST(Message, RejectsValuesWiderThanTheirField) {
  Message m;
  EXPECT_THROW(m.push(8, 3), std::invalid_argument);
  EXPECT_THROW(m.push(2, 1), std::invalid_argument);
  EXPECT_THROW(m.push_id(16, 16), std::invalid_argument);  // id_bits(16) = 4
  EXPECT_EQ(m.num_fields(), 0u);
  EXPECT_EQ(m.total_bits(), 0);
  m.push(7, 3).push_id(15, 16);
  EXPECT_EQ(m.total_bits(), 3 + 4);
}

TEST(Message, RejectsMoreFieldsThanInlineCapacity) {
  Message m;
  for (std::size_t i = 0; i < Message::kMaxFields; ++i) m.push_flag(true);
  EXPECT_THROW(m.push_flag(false), std::length_error);
  EXPECT_EQ(m.num_fields(), Message::kMaxFields);
  EXPECT_EQ(m.total_bits(), static_cast<int>(Message::kMaxFields));
}

TEST(Network, TopologyFreeBroadcastCongestIsRejected) {
  EXPECT_THROW(Network(Model::kBroadcastCongest, std::size_t{4}, 8,
                       testsupport::test_context()),
               std::invalid_argument);
}

TEST(Network, NonPositiveBandwidthIsRejected) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  for (const std::int64_t b : {std::int64_t{0}, std::int64_t{-5}}) {
    EXPECT_THROW(Network(Model::kBroadcastCongestedClique, std::size_t{3}, b,
                         testsupport::test_context()),
                 std::invalid_argument);
    EXPECT_THROW(Network(Model::kBroadcastCongest, g, b,
                         testsupport::test_context()),
                 std::invalid_argument);
  }
}

TEST(Network, ExchangeRejectsWrongOutboxCount) {
  auto net = testsupport::bcc_net(3);
  EXPECT_THROW(net.exchange(std::vector<std::vector<Message>>(2), "short"),
               std::invalid_argument);
  EXPECT_THROW(net.exchange(std::vector<std::vector<Message>>(4), "long"),
               std::invalid_argument);
  EXPECT_EQ(net.accountant().total(), 0);
  graph::Graph g(2);
  g.add_edge(0, 1, 1.0);
  auto bc = testsupport::bc_net(g);
  EXPECT_THROW(bc.exchange({}, "none"), std::invalid_argument);
}

// Reference delivery by copying: recipient r receives, for every sender s
// in ascending id order (every s != r in BCC mode, r's neighbours in BC
// mode), s's outbox in order.
using RefInbox = std::vector<std::pair<std::size_t, Message>>;
std::vector<RefInbox> reference_delivery(
    const graph::Graph* topology, std::size_t n,
    const std::vector<std::vector<Message>>& out) {
  std::vector<RefInbox> in(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t s = 0; s < n; ++s) {
      const bool linked =
          topology ? topology->find_edge(r, s).has_value() : s != r;
      if (!linked) continue;
      for (const Message& m : out[s]) in[r].push_back({s, m});
    }
  }
  return in;
}

::testing::AssertionResult matches_reference(
    const Delivery& d, const std::vector<RefInbox>& ref) {
  if (d.size() != ref.size())
    return ::testing::AssertionFailure() << "node count " << d.size();
  for (std::size_t r = 0; r < ref.size(); ++r) {
    if (d[r].size() != ref[r].size() || d[r].empty() != ref[r].empty())
      return ::testing::AssertionFailure()
             << "inbox " << r << " size " << d[r].size() << " vs "
             << ref[r].size();
    std::size_t i = 0;
    for (const Received& rm : d[r]) {
      const auto& [sender, msg] = ref[r][i];
      if (rm.sender != sender || rm.message.num_fields() != msg.num_fields() ||
          rm.message.total_bits() != msg.total_bits() ||
          rm.message.field(0) != msg.field(0))
        return ::testing::AssertionFailure()
               << "inbox " << r << " slot " << i << " differs";
      ++i;
    }
    if (i != ref[r].size())
      return ::testing::AssertionFailure() << "inbox " << r << " walked " << i;
  }
  return ::testing::AssertionSuccess();
}

// Random outboxes: each node sends 0..3 messages (so some are empty and
// some multi-message), each tagged with (sender, slot) in field 0.
std::vector<std::vector<Message>> random_outboxes(std::size_t n,
                                                  rng::Stream& stream) {
  std::vector<std::vector<Message>> out(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint64_t k = stream.next_below(4);
    for (std::uint64_t j = 0; j < k; ++j) {
      out[s].push_back(Message().push(s * 4 + j, 16).push_flag(j % 2 == 0));
    }
  }
  return out;
}

TEST(InboxView, BccMatchesCopyingDelivery) {
  rng::Stream stream(17);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 20u}) {
    auto net = testsupport::bcc_net(n);
    for (int trial = 0; trial < 5; ++trial) {
      const auto out = random_outboxes(n, stream);
      EXPECT_TRUE(matches_reference(net.exchange(out, "t"),
                                    reference_delivery(nullptr, n, out)))
          << "n=" << n << " trial " << trial;
    }
    const std::vector<std::vector<Message>> silent(n);
    EXPECT_TRUE(matches_reference(net.exchange(silent, "idle"),
                                  reference_delivery(nullptr, n, silent)));
  }
}

TEST(InboxView, BcMatchesCopyingDelivery) {
  rng::Stream stream(29);
  std::vector<graph::Graph> graphs;
  graphs.emplace_back(1);
  graphs.emplace_back(2);
  graphs.back().add_edge(0, 1, 1.0);
  graphs.emplace_back(2);  // two isolated nodes
  graphs.emplace_back(5);  // a path with a doubled edge
  graphs.back().add_edge(0, 1, 1.0);
  graphs.back().add_edge(1, 2, 1.0);
  graphs.back().add_edge(2, 1, 2.0);
  graphs.back().add_edge(3, 4, 1.0);
  graphs.push_back(graph::random_connected_gnp(24, 0.25, 4, stream));
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const graph::Graph& g = graphs[gi];
    const std::size_t n = g.num_vertices();
    auto net = testsupport::bc_net(g);
    for (int trial = 0; trial < 5; ++trial) {
      const auto out = random_outboxes(n, stream);
      EXPECT_TRUE(matches_reference(net.exchange(out, "t"),
                                    reference_delivery(&g, n, out)))
          << "graph " << gi << " trial " << trial;
    }
    const std::vector<std::vector<Message>> silent(n);
    EXPECT_TRUE(matches_reference(net.exchange(silent, "idle"),
                                  reference_delivery(&g, n, silent)));
  }
}

TEST(InboxView, MultiMessageSendersDeliverInOutboxOrder) {
  auto net = testsupport::bcc_net(3);
  std::vector<std::vector<Message>> out(3);
  out[2].push_back(Message().push(5, 4));
  out[2].push_back(Message().push(6, 4));
  out[0].push_back(Message().push(1, 4));
  out[0].push_back(Message().push(2, 4));
  out[0].push_back(Message().push(3, 4));
  const auto in = net.exchange(out, "burst");
  std::vector<std::pair<std::size_t, std::uint64_t>> got;
  for (const Received& rm : in[1]) {
    got.push_back({rm.sender, rm.message.field(0)});
  }
  const std::vector<std::pair<std::size_t, std::uint64_t>> want = {
      {0, 1}, {0, 2}, {0, 3}, {2, 5}, {2, 6}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(senders(in[0]), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(senders(in[2]), (std::vector<std::size_t>{0, 0, 0}));
  // Rounds: node 0 serializes three 4-bit broadcasts.
  EXPECT_EQ(net.accountant().total(), 3);
}

TEST(InboxView, OutlivesTemporaryOutboxesAndTheNetwork) {
  Delivery d;
  {
    auto net = testsupport::bc_net(graph::path(3));
    std::vector<std::vector<Message>> out(3);
    out[1].push_back(Message().push(42, 8));
    d = net.exchange(out, "scoped");
  }
  EXPECT_EQ(d[0].size(), 1u);
  EXPECT_EQ((*d[2].begin()).message.field(0), 42u);
  EXPECT_TRUE(d[1].empty());
}

}  // namespace
}  // namespace bcclap::bcc
