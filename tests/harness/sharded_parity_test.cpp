// Sharded backend parity: N consensus groups over ONE transport, on both
// backends. Every group must independently commit its full client quota,
// keep cross-replica agreement inside the group, and own a dense private
// instance space — sharing a transport must not let groups bleed into each
// other. Plus the headline scaling property: at an equal total replica
// budget, 4 Multi-Paxos groups out-commit 1 wide group (four leaders vs
// one).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/cluster.hpp"
#include "harness/cluster_harness.hpp"

namespace ci::harness {
namespace {

using consensus::GroupId;
using core::Placement;
using core::Protocol;

constexpr std::uint64_t kRequestsPerClient = 15;
constexpr std::int32_t kGroups = 3;
constexpr std::int32_t kClients = 2;

ShardSpec sharded_spec(Protocol p, Placement placement, Backend backend) {
  ClusterSpec o;
  o.apply_backend_profile(backend);
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = kClients;
  o.workload.requests_per_client = kRequestsPerClient;
  o.seed = 11;
  return ShardSpec(o, kGroups, placement);
}

// Every group committed its whole quota, stayed consistent, and decided a
// dense instance prefix of its own (instances start at 0 in EVERY group —
// the spaces are per-group, not partitioned slices of one shared log).
void check_groups(core::ShardedDeployment& dep) {
  for (GroupId g = 0; g < dep.num_groups(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    EXPECT_EQ(dep.group(g).total_committed(),
              kRequestsPerClient * static_cast<std::uint64_t>(kClients));
    const auto& rec = dep.recorder(g);
    EXPECT_TRUE(rec.consistent());
    EXPECT_GT(rec.deliveries(), 0u);
    const auto& decided = rec.decided();
    ASSERT_FALSE(decided.empty());
    EXPECT_EQ(decided.begin()->first, 0);  // private space starts at 0
    EXPECT_EQ(decided.rbegin()->first,
              static_cast<consensus::Instance>(decided.size()) - 1);  // dense
    // Enough instances for the quota (noops may pad past it).
    EXPECT_GE(decided.size(), kRequestsPerClient * static_cast<std::size_t>(kClients));
  }
}

class ShardedParity
    : public ::testing::TestWithParam<std::tuple<Protocol, Placement, Backend>> {};

TEST_P(ShardedParity, EveryGroupCommitsItsQuotaIndependently) {
  const auto [protocol, placement, backend] = GetParam();
  const ShardSpec shard = sharded_spec(protocol, placement, backend);

  if (backend == Backend::kSim) {
    core::Cluster c(Backend::kSim, shard);
    c.run_until(10 * kSecond);  // the quota ends the run long before this
    ASSERT_TRUE(c.sharded().clients_done());
    check_groups(c.sharded());
    EXPECT_GT(c.total_messages(), 0u);
    // Nothing was dropped on the demux floor: every message found its group.
    for (consensus::NodeId n = 0; n < c.sharded().num_nodes(); ++n) {
      EXPECT_EQ(c.sharded().node_engine(n)->unroutable(), 0u);
    }
    // Per-shard reporting views one group's slice of the run.
    for (GroupId g = 0; g < kGroups; ++g) {
      const RunResult gr = c.collect_group(g);
      EXPECT_EQ(gr.committed, kRequestsPerClient * static_cast<std::uint64_t>(kClients));
      EXPECT_TRUE(gr.consistent);
    }
  } else {
    core::Cluster c(Backend::kRt, shard);
    c.start();
    c.run_until(now_nanos() + 60 * kSecond);
    c.stop();
    const RunResult r = c.collect();  // replays delivery logs into recorders
    ASSERT_TRUE(c.clients_done());
    EXPECT_TRUE(r.consistent);
    check_groups(c.sharded());
    for (GroupId g = 0; g < kGroups; ++g) {
      const RunResult gr = c.collect_group(g);
      EXPECT_EQ(gr.committed, kRequestsPerClient * static_cast<std::uint64_t>(kClients));
      EXPECT_TRUE(gr.consistent);
      EXPECT_GT(gr.duration, 0);
    }
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Protocol, Placement, Backend>>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case Protocol::kTwoPc:
      name = "TwoPc";
      break;
    case Protocol::kBasicPaxos:
      name = "BasicPaxos";
      break;
    case Protocol::kMultiPaxos:
      name = "MultiPaxos";
      break;
    case Protocol::kOnePaxos:
      name = "OnePaxos";
      break;
  }
  switch (std::get<1>(info.param)) {
    case Placement::kGroupMajor:
      name += "GroupMajor";
      break;
    case Placement::kInterleaved:
      name += "Interleaved";
      break;
    case Placement::kCoLocated:
      name += "CoLocated";
      break;
  }
  name += std::get<2>(info.param) == Backend::kSim ? "_sim" : "_rt";
  return name;
}

// All protocols under group-major on both backends; the other placements
// under the cheapest protocol pairing to keep the rt thread count sane on
// small machines.
INSTANTIATE_TEST_SUITE_P(
    AllProtocolsGroupMajor, ShardedParity,
    ::testing::Combine(::testing::Values(Protocol::kTwoPc, Protocol::kBasicPaxos,
                                         Protocol::kMultiPaxos, Protocol::kOnePaxos),
                       ::testing::Values(Placement::kGroupMajor),
                       ::testing::Values(Backend::kSim, Backend::kRt)),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    Placements, ShardedParity,
    ::testing::Combine(::testing::Values(Protocol::kMultiPaxos),
                       ::testing::Values(Placement::kInterleaved, Placement::kCoLocated),
                       ::testing::Values(Backend::kSim, Backend::kRt)),
    param_name);

// groups=1 through the sharded path is the same deployment as a plain
// ClusterSpec: identical committed/issued/message counts on the
// deterministic backend.
TEST(ShardedSingleGroup, ReproducesUnshardedSimResults) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kSim);
  o.protocol = Protocol::kMultiPaxos;
  o.num_replicas = 3;
  o.num_clients = 3;
  o.seed = 5;

  RunPlan plan;
  plan.warmup = 10 * kMillisecond;
  plan.duration = 100 * kMillisecond;
  const RunResult single = run(Backend::kSim, o, plan);
  const RunResult sharded = run(Backend::kSim, ShardSpec(o, 1), plan);

  EXPECT_EQ(sharded.committed, single.committed);
  EXPECT_EQ(sharded.issued, single.issued);
  EXPECT_EQ(sharded.total_messages, single.total_messages);
  EXPECT_EQ(sharded.deliveries, single.deliveries);
  EXPECT_GT(single.committed, 0u);
}

// The FaultPlan is template-scoped under sharding: one slow_node(0,...)
// event slows replica 0 of EVERY group — and 1Paxos rides it out in every
// group (each elects a replacement leader independently).
TEST(ShardedFaultPlan, SlowLeaderHitsEveryGroupAndAllRideThrough) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kSim);
  o.protocol = Protocol::kOnePaxos;
  o.num_replicas = 3;
  o.num_clients = 2;
  o.seed = 13;
  o.faults.slow_node(0, 50 * kMillisecond, 10 * kSecond, 1000);

  core::Cluster c(Backend::kSim, core::ShardSpec(o, 4, Placement::kInterleaved));
  c.run_until(600 * kMillisecond);
  for (GroupId g = 0; g < 4; ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    EXPECT_TRUE(c.sharded().recorder(g).consistent());
    // Commits continued despite the group's leader staying slow: takeover
    // happened in this group, not just in group 0.
    EXPECT_GT(c.sharded().group(g).total_committed(), 100u);
    // And the group abandoned the slowed initial leader.
    EXPECT_NE(c.sharded().group(g).replica_engine(1)->believed_leader(), 0);
  }
}

// The scaling claim behind the whole layer: at 12 replicas total,
// 4 Multi-Paxos groups (4 leaders) out-commit 1 group of 12 (1 leader) —
// strictly — on the deterministic backend.
TEST(ShardedScaling, FourGroupsBeatOneAtEqualReplicaBudget) {
  ClusterSpec wide;
  wide.apply_backend_profile(Backend::kSim);
  wide.protocol = Protocol::kMultiPaxos;
  wide.num_replicas = 12;
  wide.num_clients = 8;
  wide.seed = 9;

  ClusterSpec narrow = wide;
  narrow.num_replicas = 3;
  narrow.num_clients = 2;  // 4 groups x 2 = the same 8 clients

  RunPlan plan;
  plan.warmup = 10 * kMillisecond;
  plan.duration = 150 * kMillisecond;
  const RunResult one = run(Backend::kSim, ShardSpec(wide, 1), plan);
  const RunResult four = run(Backend::kSim, ShardSpec(narrow, 4), plan);

  EXPECT_TRUE(one.consistent);
  EXPECT_TRUE(four.consistent);
  EXPECT_GT(one.committed, 0u);
  EXPECT_GT(four.committed, one.committed);
}

}  // namespace
}  // namespace ci::harness
