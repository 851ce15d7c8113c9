// Heavier 1Paxos-focused chaos sweep: every disruption the repository can
// inject, combined — slow windows on rotating victims, message loss, and
// acceptor reboots — across many seeds. 1Paxos runs its full
// reconfiguration machinery repeatedly; safety must hold on every seed and
// liveness must return once the schedule quiets down.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "core/cluster.hpp"

namespace ci::sim {
namespace {

using core::Backend;
using core::Cluster;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;

class OnePaxosChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnePaxosChaos, SurvivesCombinedFaultSchedule) {
  Rng rng(GetParam() * 0x2545F4914F6CDD1DULL + 99);
  ClusterSpec o;
  o.protocol = Protocol::kOnePaxos;
  o.num_replicas = 3 + static_cast<std::int32_t>(rng.next_below(3));  // 3..5
  o.num_clients = 3;
  o.workload.requests_per_client = 300;
  o.workload.think_time = 500 * kMicrosecond;  // stretch across the fault schedule
  o.seed = GetParam();
  o.sim.model.drop_probability = 0.02;
  Cluster c(Backend::kSim, o);

  // Rotating slow windows over the first 120 ms, always leaving a majority
  // healthy (victims are chosen one at a time).
  Nanos t = 5 * kMillisecond;
  while (t < 120 * kMillisecond) {
    const auto victim = static_cast<consensus::NodeId>(
        rng.next_below(static_cast<std::uint64_t>(o.num_replicas)));
    const Nanos len = (3 + static_cast<Nanos>(rng.next_below(20))) * kMillisecond;
    const double factor = std::pow(10.0, 1.5 + rng.next_double() * 2.0);
    c.slow_node(victim, t, t + len, factor);
    t += len + static_cast<Nanos>(rng.next_below(10)) * kMillisecond;
  }
  // One or two acceptor reboots mid-run.
  c.reset_acceptor_state_at(1, 30 * kMillisecond);
  if (rng.next_bool(0.5)) {
    const auto backup = static_cast<consensus::NodeId>(2 % o.num_replicas);
    c.reset_acceptor_state_at(backup, 70 * kMillisecond);
  }

  c.run_until(3 * kSecond);

  EXPECT_TRUE(c.consistent()) << "seed " << GetParam();
  EXPECT_EQ(c.total_committed(), 3u * 300u) << "liveness lost, seed " << GetParam();
  const auto& logs = c.deployment().recorder().delivered_by_node();
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const std::size_t n = std::min(logs[a].size(), logs[b].size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(logs[a][i], logs[b][i]) << "divergence at " << i << ", seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnePaxosChaos,
                         ::testing::Range<std::uint64_t>(1, 16),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
}  // namespace ci::sim
