// Fault-injection tests for the paper's availability claims:
//   * 2PC blocks while ANY replica is slow (§2.2, §7.6);
//   * 1Paxos keeps running with one slow non-critical core, replaces a slow
//     acceptor, replaces a slow leader (Fig. 11), and only stalls while BOTH
//     leader and acceptor are unresponsive (§5.4) — staying safe throughout;
//   * Multi-Paxos survives one slow follower and elects around a slow
//     leader.
//
// "Slow" is a multiplicative CPU cost factor over a time window, matching
// the paper's failure model ("crash" = slow core, §1 fn. 3).
#include <gtest/gtest.h>

#include "core/one_paxos.hpp"
#include "core/cluster.hpp"

namespace ci::sim {
namespace {

using core::Backend;
using core::Cluster;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;

constexpr Nanos kWindowStart = 20 * kMillisecond;
constexpr Nanos kWindowEnd = 120 * kMillisecond;
constexpr Nanos kRunEnd = 300 * kMillisecond;
constexpr double kSlowFactor = 5000;  // one message costs ~3 ms on the slow core

ClusterSpec faulty_opts(Protocol p, std::uint64_t seed = 11) {
  ClusterSpec o;
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = 5;
  o.workload.requests_per_client = 0;  // run for the whole window
  o.seed = seed;
  return o;
}

// Commits whose latency samples land inside/outside a window, measured via
// issued counters sampled around the window by running in phases.
struct PhaseCounts {
  std::uint64_t before = 0;
  std::uint64_t during = 0;
  std::uint64_t after = 0;
};

PhaseCounts run_with_slow_node(ClusterSpec opts, consensus::NodeId victim,
                               double factor = kSlowFactor) {
  Cluster c(Backend::kSim, opts);
  c.slow_node(victim, kWindowStart, kWindowEnd, factor);
  PhaseCounts counts;
  c.run_until(kWindowStart);
  counts.before = c.total_committed();
  c.run_until(kWindowEnd);
  counts.during = c.total_committed() - counts.before;
  c.run_until(kRunEnd);
  counts.after = c.total_committed() - counts.before - counts.during;
  EXPECT_TRUE(c.consistent());
  return counts;
}

// ---- 2PC: blocking ----

TEST(TwoPcFaults, SlowCoordinatorHaltsThroughput) {
  const PhaseCounts pc = run_with_slow_node(faulty_opts(Protocol::kTwoPc), 0);
  EXPECT_GT(pc.before, 100u);
  // §2.2: "after Core 0 becomes slow, only a few requests can commit and
  // the throughput drops to zero".
  EXPECT_LT(pc.during, pc.before / 10);
  EXPECT_GT(pc.after, pc.before);  // recovers once the core speeds up
}

TEST(TwoPcFaults, SlowParticipantAlsoHaltsThroughput) {
  // Blocking means ANY unresponsive replica stalls commits, not just the
  // coordinator (§1: a blocking protocol "is vulnerable to even a single
  // process being slow").
  const PhaseCounts pc = run_with_slow_node(faulty_opts(Protocol::kTwoPc), 2);
  EXPECT_GT(pc.before, 100u);
  EXPECT_LT(pc.during, pc.before / 10);
  EXPECT_GT(pc.after, pc.before);
}

// ---- 1Paxos: non-blocking ----

TEST(OnePaxosFaults, SlowThirdReplicaDoesNotStallCommits) {
  // Node 2 is neither leader (0) nor active acceptor (1): 1Paxos must keep
  // committing at full speed — the non-blocking property 2PC lacks.
  const PhaseCounts pc = run_with_slow_node(faulty_opts(Protocol::kOnePaxos), 2);
  EXPECT_GT(pc.before, 100u);
  const double before_rate = static_cast<double>(pc.before) / static_cast<double>(kWindowStart);
  const double during_rate =
      static_cast<double>(pc.during) / static_cast<double>(kWindowEnd - kWindowStart);
  EXPECT_GT(during_rate, before_rate * 0.5);
}

TEST(OnePaxosFaults, SlowAcceptorIsReplaced) {
  ClusterSpec o = faulty_opts(Protocol::kOnePaxos);
  Cluster c(Backend::kSim, o);
  c.slow_node(1, kWindowStart, kRunEnd, kSlowFactor);  // acceptor slow forever
  c.run_until(kRunEnd);
  EXPECT_TRUE(c.consistent());
  // The leader must have replaced the acceptor and continued.
  auto* leader = c.deployment().one_paxos(0);
  ASSERT_NE(leader, nullptr);
  EXPECT_TRUE(leader->is_leader());
  EXPECT_NE(leader->active_acceptor(), 1);
  // Commits continue after the switch.
  Cluster baseline(Backend::kSim, o);
  baseline.run_until(kRunEnd);
  EXPECT_GT(c.total_committed(), baseline.total_committed() / 4);
}

TEST(OnePaxosFaults, SlowLeaderIsReplacedAndThroughputRecovers) {
  // Fig. 11: throughput drops to ~0 during the leader change, then returns.
  const PhaseCounts pc = run_with_slow_node(faulty_opts(Protocol::kOnePaxos), 0);
  EXPECT_GT(pc.before, 100u);
  EXPECT_GT(pc.during, 0u);  // commits resume within the slow window
  const double after_rate =
      static_cast<double>(pc.after) / static_cast<double>(kRunEnd - kWindowEnd);
  const double before_rate = static_cast<double>(pc.before) / static_cast<double>(kWindowStart);
  EXPECT_GT(after_rate, before_rate * 0.5);
}

TEST(OnePaxosFaults, LeaderChangeElectsDifferentNode) {
  ClusterSpec o = faulty_opts(Protocol::kOnePaxos);
  Cluster c(Backend::kSim, o);
  c.slow_node(0, kWindowStart, kRunEnd, kSlowFactor);  // leader slow forever
  c.run_until(kRunEnd);
  EXPECT_TRUE(c.consistent());
  // Some other node must now lead; with node 1 hosting the acceptor, the
  // takeover falls to node 2 (§5.4 placement keeps leader != acceptor).
  auto* n2 = c.deployment().one_paxos(2);
  ASSERT_NE(n2, nullptr);
  EXPECT_TRUE(n2->is_leader());
  EXPECT_EQ(n2->active_acceptor(), 1);
}

TEST(OnePaxosFaults, BothLeaderAndAcceptorSlow_StallsThenRecovers) {
  // §5.4: with N=3, leader+acceptor slow = 2 of 3 nodes slow; neither
  // 1Paxos nor any majority protocol can progress until one responds.
  ClusterSpec o = faulty_opts(Protocol::kOnePaxos);
  Cluster c(Backend::kSim, o);
  c.slow_node(0, kWindowStart, kWindowEnd, kSlowFactor);
  c.slow_node(1, kWindowStart, kWindowEnd, kSlowFactor);
  c.run_until(kWindowStart);
  const auto before = c.total_committed();
  c.run_until(kWindowEnd);
  const auto during = c.total_committed() - before;
  c.run_until(kRunEnd);
  const auto after = c.total_committed() - before - during;
  EXPECT_GT(before, 100u);
  EXPECT_LT(during, before / 5);  // (near-)stalled
  EXPECT_GT(after, 0u);           // liveness returns, safety never lost
  EXPECT_TRUE(c.consistent());
}

TEST(OnePaxosFaults, FiveReplicasTolerateTwoSlowNonCriticalNodes) {
  // With N=5, two slow nodes that are neither leader nor acceptor leave the
  // fast path and the utility majority intact.
  ClusterSpec o = faulty_opts(Protocol::kOnePaxos);
  o.num_replicas = 5;
  Cluster c(Backend::kSim, o);
  c.slow_node(3, kWindowStart, kWindowEnd, kSlowFactor);
  c.slow_node(4, kWindowStart, kWindowEnd, kSlowFactor);
  const PhaseCounts pc = [&] {
    PhaseCounts counts;
    c.run_until(kWindowStart);
    counts.before = c.total_committed();
    c.run_until(kWindowEnd);
    counts.during = c.total_committed() - counts.before;
    c.run_until(kRunEnd);
    counts.after = c.total_committed() - counts.before - counts.during;
    return counts;
  }();
  EXPECT_TRUE(c.consistent());
  const double before_rate = static_cast<double>(pc.before) / static_cast<double>(kWindowStart);
  const double during_rate =
      static_cast<double>(pc.during) / static_cast<double>(kWindowEnd - kWindowStart);
  EXPECT_GT(during_rate, before_rate * 0.5);
}

TEST(OnePaxosFaults, AcceptorSilentRebootIsDetectedAndReplaced) {
  // The IamFresh/YouMustBeFresh machinery (Fig. 12 l.47): the acceptor loses
  // hpn/ap, the established leader sees an out-of-order abandon and must
  // switch to a fresh backup; consistency holds throughout.
  ClusterSpec o = faulty_opts(Protocol::kOnePaxos);
  Cluster c(Backend::kSim, o);
  c.reset_acceptor_state_at(1, 30 * kMillisecond);
  c.run_until(kRunEnd);
  EXPECT_TRUE(c.consistent());
  auto* leader = c.deployment().one_paxos(0);
  ASSERT_NE(leader, nullptr);
  EXPECT_TRUE(leader->is_leader());
  EXPECT_NE(leader->active_acceptor(), 1);  // rebooted acceptor was replaced
  EXPECT_GT(c.total_committed(), 1000u);    // still making progress
}

// ---- Multi-Paxos: majority-based ----

TEST(MultiPaxosFaults, SlowFollowerDoesNotStallCommits) {
  const PhaseCounts pc = run_with_slow_node(faulty_opts(Protocol::kMultiPaxos), 2);
  EXPECT_GT(pc.before, 100u);
  const double before_rate = static_cast<double>(pc.before) / static_cast<double>(kWindowStart);
  const double during_rate =
      static_cast<double>(pc.during) / static_cast<double>(kWindowEnd - kWindowStart);
  EXPECT_GT(during_rate, before_rate * 0.5);
}

TEST(MultiPaxosFaults, SlowLeaderTriggersElectionAndRecovery) {
  const PhaseCounts pc = run_with_slow_node(faulty_opts(Protocol::kMultiPaxos), 0);
  EXPECT_GT(pc.before, 100u);
  EXPECT_GT(pc.during, 0u);
  const double after_rate =
      static_cast<double>(pc.after) / static_cast<double>(kRunEnd - kWindowEnd);
  const double before_rate = static_cast<double>(pc.before) / static_cast<double>(kWindowStart);
  EXPECT_GT(after_rate, before_rate * 0.5);
}

}  // namespace
}  // namespace ci::sim
