// Leader kill over real sockets: mid-run, the leader's NetNode drops every
// connection and stops — from its peers' point of view the process died
// (EOF, not an error code). The mesh must take over and finish the full
// client quota, and no command acked before OR after the kill may be lost:
// an ack means the command was replicated, so it must survive into the
// decided log the remaining replicas agree on. This is the socket-level
// twin of the simulator's slow-leader FaultPlan sweeps — fail-stop instead
// of fail-slow, which only a real transport can express.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/cluster.hpp"
#include "core/cluster_spec.hpp"
#include "net/net_node.hpp"

namespace ci::net {
namespace {

using consensus::Command;
using core::Backend;
using core::Cluster;
using core::ClusterSpec;
using core::Protocol;
using core::RunResult;

// The socket-mesh node behind transport node `n` of a net cluster.
NetNode& mesh_node(Cluster& c, consensus::NodeId n) {
  return dynamic_cast<core::ThreadedTransport<NetNode>&>(c.transport()).node(n);
}

constexpr std::uint64_t kQuota = 40;
constexpr std::int32_t kClients = 2;
constexpr std::uint64_t kKillAfter = 20;  // commits before the leader dies

class LeaderKill : public ::testing::TestWithParam<Protocol> {};

TEST_P(LeaderKill, NoAckedCommandLostAcrossAFailStopLeader) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kNet);
  o.protocol = GetParam();
  o.num_replicas = 3;
  o.num_clients = kClients;
  o.workload.requests_per_client = kQuota;
  o.seed = 37;
  o.engine.batch.max_commands = 8;

  Cluster c(Backend::kNet, o);
  c.start();

  // Let the mesh commit a batch's worth of real traffic, then fail-stop
  // the initial leader (replica 0 is transport node 0 under group-major
  // placement) while requests are in flight.
  const Nanos kill_deadline = now_nanos() + 30 * kSecond;
  while (c.total_committed() < kKillAfter && now_nanos() < kill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(c.total_committed(), kKillAfter) << "mesh never got off the ground";
  mesh_node(c, 0).kill();

  // The survivors must detect the silence, take over, and finish the
  // remaining quota without the dead node.
  c.run_until(now_nanos() + 60 * kSecond);
  c.stop();
  const RunResult r = c.collect();
  ASSERT_TRUE(c.clients_done()) << "quota stalled after the leader kill";
  EXPECT_TRUE(r.consistent);
  EXPECT_NE(c.deployment().replica_engine(1)->believed_leader(), 0)
      << "nobody took over from the killed leader";

  // Every acked command survived: client i was acked for seqs
  // 1..committed(), and each of those (client, seq) pairs must appear in
  // the decided log (duplicates are legal — a retry can straddle the kill
  // — the executor's dedup applies them once).
  std::set<std::pair<consensus::NodeId, std::uint32_t>> decided;
  for (const Command& cmd : c.deployment().recorder().decided_sequence()) {
    if (cmd.client != consensus::kNoNode) decided.emplace(cmd.client, cmd.seq);
  }
  for (std::int32_t i = 0; i < c.client_count(); ++i) {
    const consensus::NodeId client_node = o.num_replicas + i;
    const std::uint64_t committed = c.client(i)->committed();
    EXPECT_EQ(committed, kQuota);
    for (std::uint32_t s = 1; s <= committed; ++s) {
      EXPECT_TRUE(decided.count({client_node, s}))
          << "client " << client_node << " was acked for seq " << s
          << " but the command is not in the decided log";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, LeaderKill,
                         ::testing::Values(Protocol::kMultiPaxos, Protocol::kOnePaxos),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(info.param == Protocol::kMultiPaxos
                                                  ? "MultiPaxos"
                                                  : "OnePaxos");
                         });

// Killing a FOLLOWER must barely register: the leader keeps committing
// through the remaining majority and the quota completes.
TEST(FollowerKill, MajorityKeepsCommitting) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kNet);
  o.protocol = Protocol::kMultiPaxos;
  o.num_replicas = 3;
  o.num_clients = kClients;
  o.workload.requests_per_client = kQuota;
  o.seed = 41;

  Cluster c(Backend::kNet, o);
  c.start();
  const Nanos kill_deadline = now_nanos() + 30 * kSecond;
  while (c.total_committed() < kKillAfter && now_nanos() < kill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(c.total_committed(), kKillAfter);
  mesh_node(c, 2).kill();  // a follower

  c.run_until(now_nanos() + 60 * kSecond);
  c.stop();
  const RunResult r = c.collect();
  ASSERT_TRUE(c.clients_done()) << "quota stalled after a follower kill";
  EXPECT_TRUE(r.consistent);
  for (std::int32_t i = 0; i < c.client_count(); ++i) {
    EXPECT_EQ(c.client(i)->committed(), kQuota);
  }
}

}  // namespace
}  // namespace ci::net
