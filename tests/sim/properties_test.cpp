// Property sweeps: randomized fault schedules (slow windows, message loss,
// acceptor reboots) over every protocol and many seeds. Invariants checked:
//
//   SAFETY (always):
//     * consistency — no two nodes decide different values for an instance
//       (paper §2.3 safety property (ii), Appendix B for 1Paxos);
//     * non-triviality — only client-issued commands are decided (§2.3 (i));
//     * prefix consistency — replicas execute the same sequence.
//
//   LIVENESS (after faults clear):
//     * every client's full request quota eventually commits.
//
// All schedules derive from the test seed, so failures reproduce exactly.
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

constexpr Nanos kFaultWindowEnd = 150 * kMillisecond;
constexpr Nanos kDeadline = 2 * kSecond;

struct SweepParam {
  Protocol protocol;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = protocol_name(info.param.protocol);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

class FaultSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FaultSweep, SafetyAlwaysLivenessEventually) {
  const SweepParam param = GetParam();
  Rng rng(param.seed * 0x9e3779b97f4a7c15ULL + 13);

  ClusterSpec o;
  o.protocol = param.protocol;
  o.num_replicas = 3 + static_cast<std::int32_t>(rng.next_below(2)) * 2;  // 3 or 5
  o.num_clients = 2 + static_cast<std::int32_t>(rng.next_below(4));
  o.workload.requests_per_client = 200;
  // 1 ms think time stretches each client's run across the whole fault
  // schedule (otherwise the quota completes before the first slow window).
  o.workload.think_time = 1 * kMillisecond;
  o.seed = param.seed;
  // Light message loss for the quorum protocols; 2PC in its Barrelfish
  // agreement form assumes reliable channels (§1) but has retransmission
  // timers, so give it loss too on some seeds.
  o.sim.model.drop_probability = rng.next_bool(0.5) ? 0.01 : 0.0;

  Cluster c(Backend::kSim, o);

  // 1–3 random slow windows inside [10ms, kFaultWindowEnd).
  const int windows = 1 + static_cast<int>(rng.next_below(3));
  for (int w = 0; w < windows; ++w) {
    const auto victim = static_cast<consensus::NodeId>(rng.next_below(
        static_cast<std::uint64_t>(o.num_replicas)));
    const Nanos from = 10 * kMillisecond +
                       static_cast<Nanos>(rng.next_below(80)) * kMillisecond;
    const Nanos len = (5 + static_cast<Nanos>(rng.next_below(50))) * kMillisecond;
    const double factor = std::pow(10.0, 1.0 + rng.next_double() * 2.5);
    c.slow_node(victim, from, std::min(from + len, kFaultWindowEnd), factor);
  }
  // Occasionally reboot the 1Paxos acceptor mid-run.
  if (param.protocol == Protocol::kOnePaxos && rng.next_bool(0.4)) {
    c.reset_acceptor_state_at(1, 40 * kMillisecond);
  }

  c.run_until(kDeadline);

  // SAFETY.
  EXPECT_TRUE(c.consistent()) << "agreement violated";
  const auto& logs = c.deployment().recorder().delivered_by_node();
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const std::size_t n = std::min(logs[a].size(), logs[b].size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(logs[a][i], logs[b][i]) << "log divergence at " << i;
      }
    }
  }
  // Non-triviality: every decided command was issued by a live client (or is
  // a recovery no-op).
  for (const auto& [in, batch] : c.deployment().recorder().decided()) {
    for (const auto& cmd : batch) {
      if (cmd.is_noop()) continue;
      ASSERT_GE(cmd.client, 0);
      ASSERT_GE(cmd.seq, 1u);
    }
  }

  // LIVENESS: every quota filled once faults cleared.
  EXPECT_EQ(c.total_committed(),
            static_cast<std::uint64_t>(o.num_clients) * o.workload.requests_per_client)
      << protocol_name(param.protocol) << " failed to recover liveness";
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (Protocol p : {Protocol::kTwoPc, Protocol::kBasicPaxos, Protocol::kMultiPaxos,
                     Protocol::kOnePaxos}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) params.push_back({p, seed});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultSweep, ::testing::ValuesIn(sweep_params()), param_name);

// Read-workload sweep: mixes of reads and writes across protocols must keep
// the same invariants, and (for joint 2PC) local reads must never return a
// value newer than the replica's executed prefix allows.
class ReadMixSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ReadMixSweep, MixedWorkloadsStayConsistent) {
  const SweepParam param = GetParam();
  ClusterSpec o;
  o.protocol = param.protocol;
  o.num_replicas = 3;
  o.joint = true;
  o.joint_local_reads = param.protocol == Protocol::kTwoPc;
  o.workload.requests_per_client = 120;
  o.workload.read_fraction = 0.25 * static_cast<double>(param.seed % 4);  // 0, .25, .5, .75
  o.seed = param.seed;
  Cluster c(Backend::kSim, o);
  c.run_until(kDeadline);
  EXPECT_TRUE(c.consistent());
  EXPECT_EQ(c.total_committed(), 3u * o.workload.requests_per_client);
}

std::vector<SweepParam> readmix_params() {
  std::vector<SweepParam> params;
  for (Protocol p : {Protocol::kTwoPc, Protocol::kMultiPaxos, Protocol::kOnePaxos}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) params.push_back({p, seed});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(ReadMix, ReadMixSweep, ::testing::ValuesIn(readmix_params()),
                         param_name);

}  // namespace
}  // namespace ci::sim
