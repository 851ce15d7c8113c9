// End-to-end smoke tests: every protocol commits client commands under the
// simulator with no faults, agreement stays consistent, and the basic shape
// claims of the paper hold (1Paxos sends fewer messages than Multi-Paxos).
#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace ci::sim {
namespace {

using core::Backend;
using core::Cluster;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;

ClusterSpec base_opts(Protocol p, std::int32_t clients, std::uint64_t reqs) {
  ClusterSpec o;
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = clients;
  o.workload.requests_per_client = reqs;
  o.seed = 42;
  return o;
}

class EveryProtocolSmoke : public ::testing::TestWithParam<Protocol> {};

TEST_P(EveryProtocolSmoke, SingleClientCommitsAllRequests) {
  Cluster c(Backend::kSim, base_opts(GetParam(), 1, 50));
  c.run_until(2 * kSecond);
  EXPECT_EQ(c.total_committed(), 50u) << protocol_name(GetParam());
  EXPECT_TRUE(c.consistent());
}

TEST_P(EveryProtocolSmoke, FiveClientsCommitAllRequests) {
  Cluster c(Backend::kSim, base_opts(GetParam(), 5, 40));
  c.run_until(2 * kSecond);
  EXPECT_EQ(c.total_committed(), 5u * 40u) << protocol_name(GetParam());
  EXPECT_TRUE(c.consistent());
}

TEST_P(EveryProtocolSmoke, LatencyIsFiniteAndPlausible) {
  Cluster c(Backend::kSim, base_opts(GetParam(), 1, 50));
  c.run_until(2 * kSecond);
  const Histogram h = c.sharded().merged_latency();
  ASSERT_EQ(h.count(), 50u);
  // A commit needs at least one network round trip (~2*(trans+prop) ≈ 2 µs)
  // and, without faults, should stay well under a millisecond.
  EXPECT_GT(h.mean(), 1.0 * kMicrosecond);
  EXPECT_LT(h.mean(), 1 * kMillisecond);
}

TEST_P(EveryProtocolSmoke, ReplicaLogsArePrefixConsistent) {
  Cluster c(Backend::kSim, base_opts(GetParam(), 3, 30));
  c.run_until(2 * kSecond);
  const auto& logs = c.deployment().recorder().delivered_by_node();
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const std::size_t n = std::min(logs[a].size(), logs[b].size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(logs[a][i], logs[b][i])
            << protocol_name(GetParam()) << ": logs diverge at index " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, EveryProtocolSmoke,
                         ::testing::Values(Protocol::kTwoPc, Protocol::kBasicPaxos,
                                           Protocol::kMultiPaxos, Protocol::kOnePaxos),
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

TEST(SimShape, OnePaxosSendsFewerMessagesThanMultiPaxos) {
  // Fig. 3: 1Paxos halves the boundary-crossing messages of collapsed
  // Multi-Paxos on three nodes.
  auto run_protocol = [](Protocol p) {
    Cluster c(Backend::kSim, base_opts(p, 1, 200));
    c.run_until(2 * kSecond);
    EXPECT_EQ(c.total_committed(), 200u);
    return c.total_messages();
  };
  const auto one = run_protocol(Protocol::kOnePaxos);
  const auto multi = run_protocol(Protocol::kMultiPaxos);
  EXPECT_LT(one, multi);
  // Per commit: 1Paxos ~5 messages, Multi-Paxos ~10 (plus heartbeats).
  EXPECT_NEAR(static_cast<double>(one) / 200.0, 5.0, 1.5);
  EXPECT_NEAR(static_cast<double>(multi) / 200.0, 10.0, 2.0);
}

TEST(SimShape, DeterministicForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    ClusterSpec o = base_opts(Protocol::kOnePaxos, 3, 50);
    o.seed = seed;
    Cluster c(Backend::kSim, o);
    c.run_until(2 * kSecond);
    return std::make_tuple(c.total_committed(), c.total_messages(),
                           c.sharded().merged_latency().mean());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(std::get<1>(run_once(7)), 0u);
}

TEST(SimShape, TwoPcLatencyExceedsOnePaxos) {
  // §7.2 ordering: 1Paxos < Multi-Paxos < 2PC with one client.
  auto mean_latency = [](Protocol p) {
    Cluster c(Backend::kSim, base_opts(p, 1, 200));
    c.run_until(2 * kSecond);
    return c.sharded().merged_latency().mean();
  };
  const double opx = mean_latency(Protocol::kOnePaxos);
  const double mpx = mean_latency(Protocol::kMultiPaxos);
  const double tpc = mean_latency(Protocol::kTwoPc);
  EXPECT_LT(opx, mpx);
  EXPECT_LT(mpx, tpc);
}

}  // namespace
}  // namespace ci::sim
