// Batched replies (DESIGN.md §1k): the replica that advocated a decided
// instance answers each client with one frame for all of that client's
// commands in it — kClientReplyBatch for two or more, the legacy
// kClientReply for one. Hand-stepped on both log engines:
//   * a lone command still gets a kClientReply, byte-compatible with the
//     unbatched wire;
//   * two clients sharing an instance get one frame each, entries in
//     decided order;
//   * every entry carries the epoch as of its own command: a read and a
//     later write of one key in one instance answer with different epochs
//     (the near-cache keys on them; one epoch for the whole frame would
//     let the read's stale value look current).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "consensus/multi_paxos.hpp"
#include "core/one_paxos.hpp"
#include "support/fake_net.hpp"

namespace ci::core {
namespace {

using consensus::MapStateMachine;
using consensus::Message;
using consensus::MsgType;
using consensus::Op;
using test::FakeNet;

consensus::EngineConfig base(NodeId self, MapStateMachine* sm) {
  consensus::EngineConfig cfg;
  cfg.self = self;
  cfg.num_replicas = 3;
  cfg.state_machine = sm;
  // A fixed hold: every command injected before the flush joins one batch.
  cfg.batch.max_commands = 8;
  cfg.batch.flush_after = 50 * kMicrosecond;
  return cfg;
}

// One engine kind on a FakeNet, leader 0.
template <typename EngineT>
struct Group {
  Group() {
    for (NodeId r = 0; r < 3; ++r) {
      sms.push_back(std::make_unique<MapStateMachine>());
      if constexpr (std::is_same_v<EngineT, OnePaxosEngine>) {
        OnePaxosConfig cfg;
        cfg.base = base(r, sms.back().get());
        cfg.initial_leader = 0;
        cfg.initial_acceptor = 1;
        engines.push_back(std::make_unique<EngineT>(cfg));
      } else {
        consensus::MultiPaxosConfig cfg;
        cfg.base = base(r, sms.back().get());
        cfg.initial_leader = 0;
        engines.push_back(std::make_unique<EngineT>(cfg));
      }
      net.add(engines.back().get());
    }
    net.start_all();
  }

  // Injects the requests, lets the hold expire once, and returns every
  // message that left for a client.
  std::vector<Message> decide(const std::vector<Message>& requests) {
    net.clear_external();
    for (const Message& m : requests) net.inject(m);
    net.run();
    net.advance(60 * kMicrosecond);
    net.run();
    return net.external();
  }

  FakeNet net;
  std::vector<std::unique_ptr<MapStateMachine>> sms;
  std::vector<std::unique_ptr<EngineT>> engines;
};

template <typename EngineT>
class ReplyBatch : public ::testing::Test {};
using Engines = ::testing::Types<consensus::MultiPaxosEngine, OnePaxosEngine>;
TYPED_TEST_SUITE(ReplyBatch, Engines);

std::vector<Message> to_client(const std::vector<Message>& out, NodeId client) {
  std::vector<Message> mine;
  for (const Message& m : out) {
    if (m.dst == client) mine.push_back(m);
  }
  return mine;
}

TYPED_TEST(ReplyBatch, LoneCommandKeepsTheLegacyReply) {
  Group<TypeParam> g;
  const std::vector<Message> out =
      g.decide({test::client_request(5, 0, 1, Op::kWrite, /*key=*/1, /*value=*/7)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, MsgType::kClientReply);
  EXPECT_EQ(out[0].u.client_reply.seq, 1u);
  EXPECT_EQ(out[0].u.client_reply.ok, 1);
  EXPECT_EQ(out[0].u.client_reply.leader_hint, 0);
}

TYPED_TEST(ReplyBatch, OneFramePerClientPerInstanceWithPerCommandEpochs) {
  Group<TypeParam> g;
  (void)g.decide({test::client_request(5, 0, 1, Op::kWrite, 1, 7)});
  const std::uint32_t e0 = g.engines[0]->write_epoch();  // after key 1 = 7

  // Client 5 reads key 1 and then overwrites it; client 6 writes key 2 in
  // between. All four decide in one instance.
  const std::vector<Message> out = g.decide({
      test::client_request(5, 0, 2, Op::kRead, 1),
      test::client_request(6, 0, 1, Op::kWrite, 2, 4),
      test::client_request(5, 0, 3, Op::kWrite, 1, 9),
      test::client_request(5, 0, 4, Op::kRead, 1),
  });
  const consensus::Instance in = g.engines[0]->log().first_gap() - 1;
  ASSERT_EQ(g.engines[0]->log().get_batch(in)->size(), 4u) << "the commands did not share an instance";

  const std::vector<Message> five = to_client(out, 5);
  ASSERT_EQ(five.size(), 1u) << "client 5 must get exactly one frame for the instance";
  ASSERT_EQ(five[0].type, MsgType::kClientReplyBatch);
  const consensus::ClientReplyBatch& b = five[0].u.client_reply_batch;
  EXPECT_EQ(b.instance, in);
  EXPECT_EQ(b.leader_hint, 0);
  ASSERT_EQ(b.count, 3);
  // Decided order; each entry's epoch is the one its own command left.
  EXPECT_EQ(b.entries[0].seq, 2u);
  EXPECT_EQ(b.entries[0].result, 7u);  // the read saw the old value...
  EXPECT_EQ(b.entries[0].lease_epoch, e0);  // ...at the old epoch
  EXPECT_EQ(b.entries[1].seq, 3u);
  EXPECT_EQ(b.entries[1].lease_epoch, e0 + 2);  // client 6's write came between
  EXPECT_EQ(b.entries[2].seq, 4u);
  EXPECT_EQ(b.entries[2].result, 9u);
  EXPECT_EQ(b.entries[2].lease_epoch, e0 + 2);
  EXPECT_NE(b.entries[0].lease_epoch, b.entries[1].lease_epoch)
      << "a read and a later write in one instance must not share an epoch";

  const std::vector<Message> six = to_client(out, 6);
  ASSERT_EQ(six.size(), 1u);
  EXPECT_EQ(six[0].type, MsgType::kClientReply);
  EXPECT_EQ(six[0].u.client_reply.seq, 1u);
  EXPECT_EQ(six[0].u.client_reply.lease_epoch, e0 + 1);
  EXPECT_EQ(six[0].u.client_reply.instance, in);
}

}  // namespace
}  // namespace ci::core
