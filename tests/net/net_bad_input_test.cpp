// Bad bytes on a socket cost one connection, never the process. Mid-run a
// follower writes frames no codec accepts into two of its live mesh links —
// a kClientReplyBatch claiming 65 entries (one past the ceiling) and a
// frame of an unknown type, both behind well-formed length prefixes. Each
// receiver must refuse the frame, count it, and drop only that link (the
// sender sees the connection close); the leader and the other follower
// keep committing, and the run finishes its quota with agreeing replicas.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "core/cluster_spec.hpp"
#include "net/net_node.hpp"

namespace ci::net {
namespace {

using consensus::Message;
using consensus::MsgType;
using consensus::ProtoId;
using core::Backend;
using core::Cluster;
using core::ClusterSpec;
using core::Protocol;
using core::RunResult;

constexpr std::uint64_t kQuota = 400;
constexpr std::uint64_t kGarbageAfter = 20;  // commits before the bad frames

// The socket-mesh node behind transport node `n` of a net cluster.
NetNode& mesh_node(Cluster& c, consensus::NodeId n) {
  return dynamic_cast<core::ThreadedTransport<NetNode>&>(c.transport()).node(n);
}

// One length-prefixed frame: `body` as the peer's reassembler will see it.
std::vector<unsigned char> prefixed(const unsigned char* body, std::uint32_t len) {
  std::vector<unsigned char> out(kLenPrefixBytes + len);
  put_len_prefix(out.data(), len);
  std::memcpy(out.data() + kLenPrefixBytes, body, len);
  return out;
}

// A kClientReplyBatch header and 65 entries: the struct holds 64, so the
// frame is built byte by byte past the end of a real one.
std::vector<unsigned char> reply_batch_of_65(consensus::NodeId src, consensus::NodeId dst) {
  Message m(MsgType::kClientReplyBatch, ProtoId::kClient, src, dst);
  m.u.client_reply_batch.instance = 3;
  m.u.client_reply_batch.leader_hint = 0;
  m.u.client_reply_batch.count = 65;
  const std::size_t fixed =
      consensus::kMessageHeaderBytes + offsetof(consensus::ClientReplyBatch, entries);
  std::vector<unsigned char> body(fixed + 65 * sizeof(consensus::ReplyEntry), 0x5a);
  std::memcpy(body.data(), &m, fixed);
  return prefixed(body.data(), static_cast<std::uint32_t>(body.size()));
}

std::vector<unsigned char> unknown_type_frame() {
  std::vector<unsigned char> body(40);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = static_cast<unsigned char>(0xe1 + 7 * i);
  body[0] = 0xee;  // no MsgType has this value
  return prefixed(body.data(), static_cast<std::uint32_t>(body.size()));
}

TEST(BadFrames, CostOneLinkAndTheRestKeepCommitting) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kNet);
  o.protocol = Protocol::kMultiPaxos;
  o.num_replicas = 3;
  o.num_clients = 2;
  o.workload.requests_per_client = kQuota;
  o.seed = 43;
  o.engine.batch.max_commands = 8;

  Cluster c(Backend::kNet, o);
  c.start();
  const Nanos deadline = now_nanos() + 30 * kSecond;
  while (c.total_committed() < kGarbageAfter && now_nanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(c.total_committed(), kGarbageAfter) << "mesh never got off the ground";

  // Follower 2 turns faulty toward follower 1 and toward the leader.
  mesh_node(c, 2).inject_raw(1, reply_batch_of_65(2, 1));
  mesh_node(c, 2).inject_raw(0, unknown_type_frame());
  const Nanos seen_by = now_nanos() + 10 * kSecond;
  while ((mesh_node(c, 0).bad_frames() == 0 || mesh_node(c, 1).bad_frames() == 0) &&
         now_nanos() < seen_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(mesh_node(c, 1).bad_frames(), 1u) << "the 65-entry reply batch was not refused";
  EXPECT_EQ(mesh_node(c, 0).bad_frames(), 1u) << "the unknown-type frame was not refused";
  const std::uint64_t at_garbage = c.total_committed();

  c.run_until(now_nanos() + 60 * kSecond);
  c.stop();
  const RunResult r = c.collect();
  ASSERT_TRUE(c.clients_done()) << "the quota stalled after the bad frames";
  EXPECT_GT(c.total_committed(), at_garbage) << "nothing committed after the bad frames";
  EXPECT_TRUE(r.consistent);
  for (std::int32_t i = 0; i < c.client_count(); ++i) {
    EXPECT_EQ(c.client(i)->committed(), kQuota);
  }
  EXPECT_EQ(mesh_node(c, 2).bad_frames(), 0u);  // the sender saw nothing wrong
}

}  // namespace
}  // namespace ci::net
