// Bounded memory on long runs: the replicated log keeps only what some
// replica still needs (DESIGN.md §1k).
//   * A sim ServiceClient drives a million batched YCSB-A ops through
//     1Paxos and Multi-Paxos; after warm-up, every replica's retained log
//     stays under one fixed bound, whatever the run length.
//   * A follower throttled 100x pins the trim floor until it is healed;
//     then trimming resumes past the point it was held at.
//   * A 1Paxos follower cut off from the group catches up through bodies
//     the others kept for it, and trimming resumes past where it stood.
//   * A Multi-Paxos follower that lost one decide asks for it again, and
//     its frozen applied prefix stops pinning the group's log.
//   * A leader change after trimming ends with every replica holding every
//     acknowledged write.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "client/service_client.hpp"
#include "consensus/multi_paxos.hpp"
#include "core/one_paxos.hpp"
#include "harness/workload.hpp"
#include "support/fake_net.hpp"

namespace ci::client {
namespace {

using consensus::Instance;
using consensus::NodeId;
using consensus::ReplicatedLog;

// Retained instances per replica, any time after warm-up: the trim lag (a
// heartbeat round plus the follower's report) at full rate, the pipeline
// window, and the kept tail, with room to spare. An untrimmed log passes it
// within the first 10K ops of the warm-up.
constexpr std::size_t kRetainedBound = 512;

ServiceClient::Options options(core::Protocol protocol) {
  ServiceClient::Options o;
  o.backend = core::Backend::kSim;
  o.spec.protocol = protocol;
  o.spec.apply(core::TimeoutProfile::many_core());
  o.spec.sim.model = core::LatencyModel::many_core();
  o.spec.engine.batch.max_commands = 64;
  o.spec.engine.batch.flush_after = 200 * kMicrosecond;
  o.spec.engine.batch.flush_mode = consensus::BatchPolicy::FlushMode::kAdaptive;
  o.spec.seed = 5;
  return o;
}

harness::WorkloadProfile ycsb_a(std::uint64_t seed) {
  harness::WorkloadProfile p = harness::WorkloadProfile::preset('A');
  p.sessions = 1000;
  p.key_space = 10000;
  p.seed = seed;
  return p;
}

const ReplicatedLog& log_of(ServiceClient& svc, NodeId r) {
  core::Deployment& d = svc.deployment().group(0);
  if (auto* e = d.one_paxos(r)) return e->log();
  return d.multi_paxos(r)->log();
}

std::size_t max_retained(ServiceClient& svc) {
  std::size_t most = 0;
  for (NodeId r = 0; r < svc.num_replicas(); ++r) {
    most = std::max(most, log_of(svc, r).retained());
  }
  return most;
}

std::string name_of(const ::testing::TestParamInfo<core::Protocol>& info) {
  return info.param == core::Protocol::kOnePaxos ? "OnePaxos" : "MultiPaxos";
}

class BoundedLog : public ::testing::TestWithParam<core::Protocol> {};

TEST_P(BoundedLog, RetainedInstancesStayUnderAFixedBound) {
  ServiceClient svc(options(GetParam()));
  const harness::WorkloadResult warm =
      harness::run_closed_loop(svc, ycsb_a(1), 200000, /*depth=*/256);
  ASSERT_EQ(warm.completed, 200000);
  std::int64_t ops = warm.completed;
  std::size_t peak = 0;
  for (std::uint64_t chunk = 0; chunk < 8; ++chunk) {
    const harness::WorkloadResult r =
        harness::run_closed_loop(svc, ycsb_a(2 + chunk), 100000, /*depth=*/256);
    ASSERT_EQ(r.completed, 100000);
    ops += r.completed;
    const std::size_t retained = max_retained(svc);
    peak = std::max(peak, retained);
    EXPECT_LE(retained, kRetainedBound) << "after " << ops << " ops";
  }
  EXPECT_GE(ops, 1000000);
  // The decided log grew far past the bound: it was trimmed, not small.
  EXPECT_GT(log_of(svc, 0).end(), static_cast<Instance>(4 * kRetainedBound));
  std::printf("[ bounded  ] %lld instances decided, at most %zu retained\n",
              static_cast<long long>(log_of(svc, 0).end()), peak);
}

TEST_P(BoundedLog, ThrottledFollowerPinsTheFloorUntilHealed) {
  ServiceClient svc(options(GetParam()));
  ASSERT_EQ(harness::run_closed_loop(svc, ycsb_a(1), 100000, 256).completed, 100000);
  // Replica 2 is a follower under both protocols (1Paxos: leader 0,
  // acceptor 1). Throttled, its answers to heartbeats trail further and
  // further behind, and the floor stays where its last report put it.
  constexpr NodeId kSlow = 2;
  const NodeId leader = svc.believed_leader(0);
  ASSERT_NE(leader, kSlow);
  svc.throttle_replica(kSlow, 100);
  ASSERT_EQ(harness::run_closed_loop(svc, ycsb_a(2), 50000, 256).completed, 50000);
  const ReplicatedLog& lead = log_of(svc, leader);
  ASSERT_GT(lead.retained(), kRetainedBound) << "the laggard did not pin the floor";
  const Instance pinned = lead.end() - static_cast<Instance>(lead.retained());
  EXPECT_FALSE(lead.is_trimmed(pinned));

  // Healed, the follower still owes the work it queued while slow (the
  // simulator keeps a slowed core's backlog); once through it, its reports
  // are current again and the floor catches up with the group.
  svc.throttle_replica(kSlow, 1);
  ASSERT_EQ(harness::run_closed_loop(svc, ycsb_a(3), 50000, 256).completed, 50000);
  const Nanos give_up = svc.sim_now() + 5 * kSecond;
  while (max_retained(svc) > kRetainedBound && svc.sim_now() < give_up) {
    svc.sim_run_until(svc.sim_now() + 10 * kMillisecond);
  }
  for (NodeId r = 0; r < svc.num_replicas(); ++r) {
    EXPECT_TRUE(log_of(svc, r).is_trimmed(pinned)) << "replica " << r << " stopped trimming";
    EXPECT_LE(log_of(svc, r).retained(), kRetainedBound) << "replica " << r;
  }
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::uint64_t want = svc.state_machine(0, 0)->read(key);
    for (NodeId r = 1; r < svc.num_replicas(); ++r) {
      ASSERT_EQ(svc.state_machine(0, r)->read(key), want) << "key " << key << " replica " << r;
    }
  }
}

TEST_P(BoundedLog, LeaderChangeAfterTrimmingKeepsEveryAcknowledgedWrite) {
  ServiceClient svc(options(GetParam()));
  ASSERT_EQ(harness::run_closed_loop(svc, ycsb_a(1), 100000, 256).completed, 100000);
  const NodeId leader = svc.believed_leader(0);
  ASSERT_TRUE(log_of(svc, leader).is_trimmed(0)) << "nothing trimmed before the change";

  // A pipelined writer runs through the leader's slowdown and the takeover.
  Session& s = svc.session(0);
  constexpr std::uint64_t kWrites = 20000;
  constexpr std::uint64_t kBase = 1u << 20;  // clear of the YCSB key space
  const auto value_of = [](std::uint64_t key) { return key * 3 + 1; };
  std::vector<SubmitHandle> flight;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    if (i == kWrites / 4) svc.throttle_replica(leader, 1000);
    flight.push_back(s.submit(Op::kWrite, kBase + i, value_of(kBase + i)));
  }
  s.flush();
  for (SubmitHandle& h : flight) ASSERT_TRUE(h.done());
  EXPECT_NE(svc.believed_leader(0), leader) << "no leader change happened";

  svc.throttle_replica(leader, 1);
  ASSERT_EQ(harness::run_closed_loop(svc, ycsb_a(2), 50000, 256).completed, 50000);
  svc.sim_run_until(svc.sim_now() + 100 * kMillisecond);
  for (NodeId r = 0; r < svc.num_replicas(); ++r) {
    std::uint64_t missing = 0;
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      if (svc.state_machine(0, r)->read(kBase + i) != value_of(kBase + i)) ++missing;
    }
    EXPECT_EQ(missing, 0u) << "replica " << r << " lost acknowledged writes";
  }
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::uint64_t want = svc.state_machine(0, 0)->read(key);
    for (NodeId r = 1; r < svc.num_replicas(); ++r) {
      ASSERT_EQ(svc.state_machine(0, r)->read(key), want) << "key " << key << " replica " << r;
    }
  }
}

// A 1Paxos follower cut off while the group decides and trims: the floor
// stays at the follower's last report, so when it is back its catch-up
// requests find every body they ask for, and once it reports again the
// whole group trims past the point it was stuck at.
TEST(BoundedLogCatchUp, OnePaxosFollowerCutOffCatchesUpAcrossTheDropPoint) {
  test::FakeNet net;
  std::vector<std::unique_ptr<core::OnePaxosEngine>> engines;
  for (NodeId r = 0; r < 3; ++r) {
    core::OnePaxosConfig cfg;
    cfg.base.self = r;
    cfg.base.num_replicas = 3;
    cfg.base.fd_timeout = 3 * kMillisecond;
    cfg.initial_leader = 0;
    cfg.initial_acceptor = 1;
    engines.push_back(std::make_unique<core::OnePaxosEngine>(cfg));
    net.add(engines.back().get());
  }
  net.start_all();
  const auto log = [&](NodeId r) -> const ReplicatedLog& {
    return engines[static_cast<std::size_t>(r)]->log();
  };
  constexpr NodeId kClient = 9;
  std::uint32_t seq = 0;
  // One command per instance; a heartbeat round (and the reports it draws)
  // every 10 commands.
  const auto commit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      net.inject(test::client_request(kClient, 0, ++seq));
      net.run();
      if (seq % 10 == 0) {
        net.advance(200 * kMicrosecond);
        net.run();
      }
    }
    net.clear_external();
  };
  commit(300);
  for (NodeId r = 0; r < 3; ++r) ASSERT_TRUE(log(r).is_trimmed(100)) << "replica " << r;

  net.isolate(2);
  commit(300);
  const Instance stuck = log(2).executed_prefix();
  ASSERT_LE(stuck, 300);
  ASSERT_EQ(log(0).executed_prefix(), 600);
  // The cut-off follower pins the floor: its next instance is still held.
  EXPECT_FALSE(log(0).is_trimmed(stuck));
  EXPECT_FALSE(log(1).is_trimmed(stuck));

  net.heal(2);
  for (int i = 0; i < 100 && log(2).executed_prefix() < 600; ++i) {
    net.advance(200 * kMicrosecond);
    net.run();
  }
  EXPECT_EQ(log(2).executed_prefix(), 600) << "the follower never caught up";
  // One more round carries its report; the floor moves past `stuck`.
  for (int i = 0; i < 3; ++i) {
    net.advance(200 * kMicrosecond);
    net.run();
  }
  for (NodeId r = 0; r < 3; ++r) {
    EXPECT_TRUE(log(r).is_trimmed(stuck)) << "replica " << r;
    for (Instance in = 600 - ReplicatedLog::kKeptTail; in < 600; ++in) {
      ASSERT_TRUE(*log(r).get(in) == *log(0).get(in)) << "instance " << in;
    }
  }
  EXPECT_EQ(net.delivered(2).size(), net.delivered(0).size());
}

// A Multi-Paxos follower that loses one decide (every acceptance of
// instance 5 addressed to it) learns everything after it but cannot apply
// past the hole. The next heartbeats show the hole is older than a round;
// the follower asks for it, applies the whole log, and its reports let the
// group trim again.
TEST(BoundedLogCatchUp, MultiPaxosFollowerMissingOneDecideCatchesUp) {
  test::FakeNet net;
  std::vector<std::unique_ptr<consensus::MultiPaxosEngine>> engines;
  for (NodeId r = 0; r < 3; ++r) {
    consensus::MultiPaxosConfig cfg;
    cfg.base.self = r;
    cfg.base.num_replicas = 3;
    cfg.initial_leader = 0;
    engines.push_back(std::make_unique<consensus::MultiPaxosEngine>(cfg));
    net.add(engines.back().get());
  }
  net.start_all();
  const auto log = [&](NodeId r) -> const ReplicatedLog& {
    return engines[static_cast<std::size_t>(r)]->log();
  };
  bool dropping = true;  // only the first round of acceptances is lost
  const auto lost = [&](const consensus::Message& m) {
    return dropping && m.dst == 2 && m.type == consensus::MsgType::kPhase2Acked &&
           m.u.phase2_acked.instance == 5;
  };
  const auto run = [&] {
    while (net.pending() > 0) {
      net.drop_if(lost);
      net.step();
    }
  };
  constexpr NodeId kClient = 9;
  std::uint32_t seq = 0;
  // One command per instance; a heartbeat round every 10 commands.
  const auto commit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      net.inject(test::client_request(kClient, 0, ++seq));
      run();
      if (seq % 10 == 0) {
        net.advance(200 * kMicrosecond);
        run();
      }
    }
    net.clear_external();
  };
  commit(6);
  ASSERT_EQ(log(2).first_gap(), 5) << "the decide of instance 5 was not lost";
  dropping = false;
  commit(500);  // 50 heartbeat rounds
  EXPECT_EQ(log(2).first_gap(), 506);
  EXPECT_EQ(log(2).executed_prefix(), 506) << "the follower never caught up";
  EXPECT_EQ(net.delivered(2).size(), net.delivered(0).size());
  // The follower's reports moved the floor: the leader keeps the last
  // round's lag plus the kept tail, not the whole log.
  EXPECT_LE(log(0).retained(), static_cast<std::size_t>(2 * ReplicatedLog::kKeptTail));
}

INSTANTIATE_TEST_SUITE_P(Protocols, BoundedLog,
                         ::testing::Values(core::Protocol::kOnePaxos,
                                           core::Protocol::kMultiPaxos),
                         name_of);

}  // namespace
}  // namespace ci::client
