// Acknowledged means applied: a pipelined session keeps writing through a
// 1Paxos group while its leader slows 100x mid-stream. The slow leader
// strands some commands; their retries reach the log only after newer
// commands of the same session, and every write the session saw
// acknowledged must still hold on every replica.
#include "client/service_client.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace ci::client {
namespace {

TEST(SlowLeader, EveryAcknowledgedWriteHoldsOnEveryReplica) {
  ServiceClient::Options o;
  o.backend = core::Backend::kSim;
  o.spec.protocol = core::Protocol::kOnePaxos;
  o.spec.apply(core::TimeoutProfile::many_core());
  o.spec.engine.batch.max_commands = 64;
  o.spec.engine.batch.flush_after = 200 * kMicrosecond;
  o.spec.engine.batch.flush_mode = consensus::BatchPolicy::FlushMode::kAdaptive;
  ServiceClient svc(o);
  Session& s = svc.session(0);
  const consensus::NodeId leader = svc.believed_leader(0);

  constexpr std::uint64_t kWrites = 40000;
  const auto value_of = [](std::uint64_t key) { return key * 7 + 1; };
  std::deque<std::pair<std::uint64_t, SubmitHandle>> flight;
  std::vector<std::uint64_t> acked;  // keys whose one write was acknowledged
  const auto reap = [&] {
    while (!flight.empty() && flight.front().second.done()) {
      acked.push_back(flight.front().first);
      flight.pop_front();
    }
  };
  for (std::uint64_t key = 1; key <= kWrites; ++key) {
    if (key == kWrites / 4) svc.throttle_replica(leader, 100);
    flight.emplace_back(key, s.submit(Op::kWrite, key, value_of(key)));  // blocks for room
    reap();
  }
  s.flush();
  reap();
  ASSERT_EQ(acked.size(), kWrites);
  EXPECT_NE(svc.believed_leader(0), leader);  // the slow leader was replaced

  // Heal, then let the old leader catch up before reading every replica.
  svc.throttle_replica(leader, 1);
  svc.sim_run_until(svc.sim_now() + 100 * kMillisecond);
  for (consensus::NodeId r = 0; r < svc.num_replicas(); ++r) {
    std::uint64_t missing = 0;
    for (const std::uint64_t key : acked) {
      if (svc.state_machine(0, r)->read(key) != value_of(key)) ++missing;
    }
    EXPECT_EQ(missing, 0u) << "replica " << r << " lost acknowledged writes";
  }
}

}  // namespace
}  // namespace ci::client
