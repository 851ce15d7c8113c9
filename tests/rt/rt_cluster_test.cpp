// Integration tests: every protocol end-to-end over the real QC-libtask
// transport with pinned threads, plus the rt-side fault injection.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/affinity.hpp"
#include "core/cluster.hpp"

namespace ci::rt {
namespace {

using core::Backend;
using core::Cluster;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;
using core::RunResult;

ClusterSpec opts(Protocol p, std::int32_t clients, std::uint64_t reqs) {
  ClusterSpec o;
  o.apply(core::TimeoutProfile::real_threads());
  o.protocol = p;
  o.num_clients = clients;
  o.workload.requests_per_client = reqs;
  return o;
}

class RtProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(RtProtocols, SingleClientCommits) {
  Cluster c(Backend::kRt, opts(GetParam(), 1, 100));
  c.start();
  const RunResult r = c.run_to_completion(20 * kSecond);
  EXPECT_EQ(r.committed, 100u) << protocol_name(GetParam());
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.latency.mean(), 0.0);
}

TEST_P(RtProtocols, FourClientsCommit) {
  Cluster c(Backend::kRt, opts(GetParam(), 4, 100));
  c.start();
  const RunResult r = c.run_to_completion(30 * kSecond);
  EXPECT_EQ(r.committed, 400u) << protocol_name(GetParam());
  EXPECT_TRUE(r.consistent);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RtProtocols,
                         ::testing::Values(Protocol::kTwoPc, Protocol::kMultiPaxos,
                                           Protocol::kOnePaxos, Protocol::kBasicPaxos),
                         [](const auto& info) {
                           switch (info.param) {
                             case Protocol::kTwoPc:
                               return "TwoPc";
                             case Protocol::kBasicPaxos:
                               return "BasicPaxos";
                             case Protocol::kMultiPaxos:
                               return "MultiPaxos";
                             case Protocol::kOnePaxos:
                               return "OnePaxos";
                           }
                           return "Unknown";
                         });

TEST(RtCluster, JointDeploymentCommits) {
  ClusterSpec o = opts(Protocol::kOnePaxos, 0, 100);
  o.joint = true;
  o.num_replicas = 4;
  Cluster c(Backend::kRt, o);
  c.start();
  const RunResult r = c.run_to_completion(20 * kSecond);
  EXPECT_EQ(r.committed, 400u);
  EXPECT_TRUE(r.consistent);
}

TEST(RtCluster, TwoPcJointLocalReadsServeWithoutMessages) {
  ClusterSpec o = opts(Protocol::kTwoPc, 0, 200);
  o.joint = true;
  o.joint_local_reads = true;
  o.workload.read_fraction = 0.75;
  Cluster c(Backend::kRt, o);
  c.start();
  const RunResult r = c.run_to_completion(20 * kSecond);
  EXPECT_EQ(r.committed, 600u);
  EXPECT_GT(r.local_reads, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(RtCluster, OnePaxosLatencyBeatsTwoPc) {
  // §7.2's ordering on real hardware. Take the best median of several runs:
  // container scheduling noise only ever adds latency, so min-of-medians is
  // a robust estimator of the protocol's intrinsic cost.
  auto best_median = [](Protocol p) {
    Nanos best = 0;
    for (int run = 0; run < 3; ++run) {
      Cluster c(Backend::kRt, opts(p, 1, 2000));
      c.start();
      const RunResult r = c.run_to_completion(30 * kSecond);
      EXPECT_EQ(r.committed, 2000u);
      const Nanos med = r.latency.percentile(0.5);
      best = run == 0 ? med : std::min(best, med);
    }
    return best;
  };
  const Nanos opx = best_median(Protocol::kOnePaxos);
  const Nanos tpc = best_median(Protocol::kTwoPc);
  EXPECT_LT(static_cast<double>(opx), static_cast<double>(tpc) * 1.15)
      << "1Paxos median " << opx << "ns vs 2PC median " << tpc << "ns";
}

std::uint64_t committed_sum(Cluster& c) {
  std::uint64_t sum = 0;
  for (std::int32_t i = 0; i < c.client_count(); ++i) sum += c.client(i)->committed();
  return sum;
}

TEST(RtCluster, OnePaxosSurvivesSlowLeader) {
  // Fig. 11 shape: throughput drops during the takeover, then recovers.
  // Slowness is injected as per-message stalls (container sandboxes emulate
  // CPU affinity, so burner threads do not contend; see DESIGN.md).
  ClusterSpec o = opts(Protocol::kOnePaxos, 5, 0);
  o.workload.requests_per_client = 0;
  Cluster c(Backend::kRt, o);
  c.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t before = committed_sum(c);
  c.throttle_node(0, 2000);  // ~1 ms per message on the leader
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  const std::uint64_t during_end = committed_sum(c);
  c.throttle_node(0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  c.stop();
  const RunResult r = c.collect();
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(before, 1000u);
  // Commits continued during the slow window (takeover happened)...
  EXPECT_GT(during_end - before, 500u) << "1Paxos did not recover during the fault";
  // ...and after it.
  EXPECT_GT(r.committed, during_end + 500u);
}

TEST(RtCluster, TwoPcBlocksUnderSlowCoordinator) {
  ClusterSpec o = opts(Protocol::kTwoPc, 5, 0);
  o.workload.requests_per_client = 0;
  Cluster c(Backend::kRt, o);
  c.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t before = committed_sum(c);
  c.throttle_node(0, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const std::uint64_t during = committed_sum(c) - before;
  c.throttle_node(0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  c.stop();
  const RunResult r = c.collect();
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(before, 1000u);
  // Blocking: commits during the 2x-long slow window are a tiny fraction of
  // the pre-fault count — no takeover exists in 2PC (§2.2).
  EXPECT_LT(during, before / 5) << "2PC did not block under a slow coordinator";
  // Throughput returns once the coordinator heals.
  EXPECT_GT(r.committed, before + during);
}

TEST(RtCluster, TwoPcBlocksUnderSlowParticipant) {
  // Any single slow replica halts 2PC (it waits for ALL acks).
  ClusterSpec o = opts(Protocol::kTwoPc, 5, 0);
  o.workload.requests_per_client = 0;
  Cluster c(Backend::kRt, o);
  c.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t before = committed_sum(c);
  c.throttle_node(2, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const std::uint64_t during = committed_sum(c) - before;
  c.throttle_node(2, 1);
  c.stop();
  EXPECT_GT(before, 1000u);
  EXPECT_LT(during, before / 5);
}

TEST(RtCluster, OnePaxosToleratesSlowThirdReplica) {
  // Node 2 is neither leader nor acceptor: 1Paxos keeps full throughput.
  ClusterSpec o = opts(Protocol::kOnePaxos, 5, 0);
  o.workload.requests_per_client = 0;
  Cluster c(Backend::kRt, o);
  c.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t before = committed_sum(c);
  c.throttle_node(2, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const std::uint64_t during = committed_sum(c) - before;
  c.throttle_node(2, 1);
  c.stop();
  const RunResult r = c.collect();
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(before, 1000u);
  // The window is 2x the warmup: rate must stay comparable, not collapse.
  // On an oversubscribed machine the throttled node's busy-wait burns CPU
  // the whole cluster shares, so allow a deeper (but still non-blocking —
  // contrast 2PC's < 1/5 above) dip there.
  const bool oversubscribed = online_cores() < 9;  // 3 replicas + 5 clients + manager
  EXPECT_GT(during, oversubscribed ? before / 4 : before / 2)
      << "1Paxos stalled on a non-critical slow core";
}

}  // namespace
}  // namespace ci::rt
