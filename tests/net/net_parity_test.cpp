// Loopback-mesh parity vs the simulator: the same ShardSpec runs under
// the sim and net backends of core::Cluster across {MultiPaxos, 1Paxos} x groups
// {1, 4} x batch {1, 64}, and the socket mesh must reproduce what the
// deterministic backend proved: every client's full ack quota, identical
// per-client acked command sequences (first decisions in seq order — the
// socket mesh may legally re-decide a retry, the executor dedups), cross-
// replica agreement, and a dense private instance space per group. This is
// the adapter claim made testable: frames crossing real sockets change
// nothing the protocol can observe.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster.hpp"
#include "harness/cluster_harness.hpp"

namespace ci::harness {
namespace {

using consensus::Command;
using consensus::GroupId;
using consensus::NodeId;
using core::AgreementRecorder;
using core::Placement;
using core::Protocol;

constexpr std::uint64_t kQuota = 12;
constexpr std::int32_t kClients = 2;

ShardSpec mesh_spec(Protocol p, Backend backend, std::int32_t groups,
                    std::int32_t batch) {
  ClusterSpec o;
  o.apply_backend_profile(backend);
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = kClients;
  o.workload.requests_per_client = kQuota;
  o.seed = 31;
  o.engine.batch.max_commands = batch;
  return ShardSpec(o, groups, Placement::kGroupMajor);
}

// Per-client FIRST-decision seq sequences from a group's recorder — the
// backend-comparable form: duplicates from socket-level retries collapse
// to the first occurrence, which must land in seq order on any backend.
std::map<NodeId, std::vector<std::uint32_t>> first_decided_seqs(
    const AgreementRecorder& rec) {
  std::map<NodeId, std::vector<std::uint32_t>> out;
  std::map<NodeId, std::vector<bool>> seen;
  for (const Command& cmd : rec.decided_sequence()) {
    if (cmd.client == consensus::kNoNode) continue;
    auto& s = seen[cmd.client];
    if (s.size() <= cmd.seq) s.resize(cmd.seq + 1, false);
    if (s[cmd.seq]) continue;
    s[cmd.seq] = true;
    out[cmd.client].push_back(cmd.seq);
  }
  return out;
}

// The invariants every group must satisfy on either backend.
void check_group(core::Deployment& dep, std::int32_t batch_cap) {
  for (std::int32_t i = 0; i < dep.client_count(); ++i) {
    EXPECT_EQ(dep.client(i)->committed(), kQuota) << "client " << i << " ack count";
  }
  const AgreementRecorder& rec = dep.recorder();
  EXPECT_TRUE(rec.consistent());
  const auto& decided = rec.decided();
  ASSERT_FALSE(decided.empty());
  EXPECT_EQ(decided.begin()->first, 0);  // private space starts at 0
  EXPECT_EQ(decided.rbegin()->first,
            static_cast<consensus::Instance>(decided.size()) - 1);  // dense
  for (const auto& [in, slots] : decided) {
    EXPECT_GE(slots.size(), 1u);
    EXPECT_LE(slots.size(), static_cast<std::size_t>(batch_cap)) << "instance " << in;
  }
}

class NetSimParity
    : public ::testing::TestWithParam<std::tuple<Protocol, std::int32_t, std::int32_t>> {
};

TEST_P(NetSimParity, SocketMeshReproducesTheSimulatedAckSequences) {
  const auto [protocol, groups, batch] = GetParam();

  // The deterministic reference run.
  core::Cluster base(Backend::kSim, mesh_spec(protocol, Backend::kSim, groups, batch));
  base.run_until(20 * kSecond);
  ASSERT_TRUE(base.sharded().clients_done());

  // The same deployment over real sockets.
  core::Cluster c(Backend::kNet, mesh_spec(protocol, Backend::kNet, groups, batch));
  c.start();
  c.run_until(now_nanos() + 60 * kSecond);
  c.stop();
  const RunResult r = c.collect();
  ASSERT_TRUE(c.clients_done()) << "net mesh missed its quota";
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.total_messages, 0u);
  EXPECT_GT(r.total_bytes, 0u);

  for (GroupId g = 0; g < groups; ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    check_group(c.sharded().group(g), batch);
    check_group(base.sharded().group(g), batch);
    // Identical per-client ack sequences: with the quota met on both
    // backends, each client's first decisions are exactly seq 1..kQuota in
    // order — element for element what the simulator decided.
    const auto net_seqs = first_decided_seqs(c.sharded().recorder(g));
    const auto sim_seqs = first_decided_seqs(base.sharded().recorder(g));
    EXPECT_EQ(net_seqs, sim_seqs);
    for (const auto& [client, seqs] : net_seqs) {
      ASSERT_EQ(seqs.size(), kQuota) << "client " << client;
      for (std::uint32_t i = 0; i < kQuota; ++i) {
        EXPECT_EQ(seqs[i], i + 1) << "client " << client << " decided out of order";
      }
    }
  }
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Protocol, std::int32_t, std::int32_t>>&
        info) {
  std::string name =
      std::get<0>(info.param) == Protocol::kMultiPaxos ? "MultiPaxos" : "OnePaxos";
  name += "G" + std::to_string(std::get<1>(info.param));
  name += "B" + std::to_string(std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetSimParity,
    ::testing::Combine(::testing::Values(Protocol::kMultiPaxos, Protocol::kOnePaxos),
                       ::testing::Values(1, 4), ::testing::Values(1, 64)),
    param_name);

}  // namespace
}  // namespace ci::harness
