// The linearizable read path end to end through the client layer:
//   * lease-served reads agree with replicated ground truth on both
//     protocols and both backends (fast-path use asserted via engine
//     introspection under sim, where virtual time is quiescent between
//     session calls);
//   * session-ordered freshness survives the staleness adversary — follower
//     clocks stretched past lease_epsilon plus a leader kill — on sim AND
//     rt;
//   * the opt-in near-cache: hits while the epoch stands still, wholesale
//     invalidation the moment any reply reveals a newer epoch,
//     write-through population;
//   * read-only snapshot transactions return a consistent cut across
//     groups while cross-shard writers keep mutating the invariant pair.
#include <gtest/gtest.h>

#include <string>

#include "client/service_client.hpp"
#include "consensus/multi_paxos.hpp"
#include "core/one_paxos.hpp"

namespace ci::client {
namespace {

using consensus::NodeId;

constexpr Nanos kLease = 20 * kMillisecond;
constexpr Nanos kEpsilon = 2 * kMillisecond;

ServiceClient::Options lease_opts(core::Backend backend, core::Protocol protocol) {
  ServiceClient::Options o;
  o.backend = backend;
  o.spec.protocol = protocol;
  if (backend == core::Backend::kSim) {
    // Microsecond timers so heartbeat (and thus lease) rounds complete
    // within the virtual time a short session pumps.
    o.spec.apply(core::TimeoutProfile::many_core());
    o.spec.workload.request_timeout = 10 * kMillisecond;
  }
  o.spec.engine.lease_duration = kLease;
  o.spec.engine.lease_epsilon = kEpsilon;
  return o;
}

// Fast-path reads served across group 0's replicas (sim only: under rt the
// node threads own this state).
std::uint64_t fast_reads(ServiceClient& svc, core::Protocol protocol) {
  std::uint64_t n = 0;
  for (NodeId r = 0; r < svc.num_replicas(); ++r) {
    if (protocol == core::Protocol::kMultiPaxos) {
      if (auto* e = svc.deployment().group(0).multi_paxos(r)) n += e->lease_reads();
    } else {
      if (auto* e = svc.deployment().group(0).one_paxos(r)) n += e->lease_reads();
    }
  }
  return n;
}

struct ReadCase {
  core::Backend backend;
  core::Protocol protocol;
};

class ReadPath : public ::testing::TestWithParam<ReadCase> {};

TEST_P(ReadPath, LeaseReadsMatchReplicatedTruth) {
  const ReadCase c = GetParam();
  ServiceClient svc(lease_opts(c.backend, c.protocol));
  Session& s = svc.session(0);

  for (std::uint64_t k = 0; k < 8; ++k) s.execute(Op::kWrite, k, 100 + k);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(s.execute(Op::kRead, k, 0), 100 + k);
  }

  if (c.backend == core::Backend::kSim) {
    // Keep reading until a heartbeat round has granted the lease: every
    // iteration must still return the replicated truth, whichever path
    // served it.
    int rounds = 0;
    while (fast_reads(svc, c.protocol) == 0 && rounds < 5000) {
      ++rounds;
      ASSERT_EQ(s.execute(Op::kRead, 3, 0), 103u);
    }
    EXPECT_GT(fast_reads(svc, c.protocol), 0u);
    // Fast-path reads observe later writes immediately (they answer from
    // the applied machine, behind the same commit order).
    s.execute(Op::kWrite, 3, 999);
    EXPECT_EQ(s.execute(Op::kRead, 3, 0), 999u);
  }
}

// The acceptance scenario: stretch every follower's clock well past the
// epsilon bound, then kill the leader (the paper's slow-core failure
// model). The session must keep reading its own writes through the
// failover — replies retarget it to the new regime before any read could
// land on the deposed leader.
TEST_P(ReadPath, StretchedClocksPlusLeaderKillStayFresh) {
  const ReadCase c = GetParam();
  if (c.protocol != core::Protocol::kMultiPaxos) {
    GTEST_SKIP() << "leader-kill failover sweep runs on Multi-Paxos";
  }
  ServiceClient svc(lease_opts(c.backend, c.protocol));
  Session& s = svc.session(0);

  const std::uint64_t key = 3;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    s.execute(Op::kWrite, key, i);
    ASSERT_EQ(s.execute(Op::kRead, key, 0), i);
  }

  const NodeId leader = svc.believed_leader(0);
  ASSERT_NE(leader, consensus::kNoNode);
  for (NodeId r = 0; r < svc.num_replicas(); ++r) {
    // (4 - 1) * lease >> epsilon: grants lapse in a quarter of the time the
    // leader believes them.
    if (r != leader) svc.stretch_clock(r, 4.0);
  }
  // Factor 1000 is a clean kill: a mildly slow leader limps along serving
  // timeouts for much longer (simulated) time before the failover settles.
  svc.throttle_replica(leader, 1000);

  for (std::uint64_t i = 6; i <= 10; ++i) {
    s.execute(Op::kWrite, key, i);
    ASSERT_EQ(s.execute(Op::kRead, key, 0), i) << "stale read after failover";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ReadPath,
    ::testing::Values(ReadCase{core::Backend::kSim, core::Protocol::kMultiPaxos},
                      ReadCase{core::Backend::kSim, core::Protocol::kOnePaxos},
                      ReadCase{core::Backend::kRt, core::Protocol::kMultiPaxos},
                      ReadCase{core::Backend::kRt, core::Protocol::kOnePaxos}),
    [](const auto& info) {
      return std::string(core::backend_name(info.param.backend)) +
             (info.param.protocol == core::Protocol::kMultiPaxos ? "_mp" : "_opx");
    });

TEST(NearCache, HitsWhileEpochStandsInvalidatesOnNewerEpoch) {
  ServiceClient::Options o = lease_opts(core::Backend::kSim, core::Protocol::kMultiPaxos);
  o.num_sessions = 2;
  ServiceClient svc(o);
  Session& s = svc.session(0);
  s.enable_near_cache();

  s.execute(Op::kWrite, 5, 1);  // write-through: (5 -> 1) under the ack epoch
  EXPECT_EQ(s.near_cache_hits(), 0u);
  EXPECT_EQ(s.execute(Op::kRead, 5, 0), 1u);  // epoch unchanged: a hit
  EXPECT_EQ(s.near_cache_hits(), 1u);

  s.execute(Op::kWrite, 7, 9);  // the ack reveals a newer epoch...
  EXPECT_EQ(s.execute(Op::kRead, 5, 0), 1u);  // ...so this MISSES and refetches
  EXPECT_EQ(s.near_cache_hits(), 1u);
  EXPECT_EQ(s.execute(Op::kRead, 5, 0), 1u);  // recached under the new epoch
  EXPECT_EQ(s.near_cache_hits(), 2u);
  EXPECT_EQ(s.execute(Op::kRead, 7, 0), 9u);  // write-through entry also hits
  EXPECT_EQ(s.near_cache_hits(), 3u);

  // Another session's write advances the group's epoch; this session's next
  // contact with the leader reveals it and invalidates the whole cache, so
  // the read after that fetches the fresh value.
  svc.session(1).execute(Op::kWrite, 5, 2);
  s.execute(Op::kWrite, 8, 1);
  const std::uint64_t hits_before = s.near_cache_hits();
  EXPECT_EQ(s.execute(Op::kRead, 5, 0), 2u);
  EXPECT_EQ(s.near_cache_hits(), hits_before);  // it was a miss
}

// A read and a later write of one key decided in one instance come back in
// one kClientReplyBatch, each entry with its own epoch. The read's epoch
// predates the write, so a near-cache entry made from the read is already
// older than the session's latest epoch once the frame is processed — it
// is never served. (One epoch for the whole frame would stamp the read's
// stale value with the write's epoch and make it look current.)
TEST(NearCache, ReadAndLaterWriteInOneInstanceDoNotShareAnEpoch) {
  ServiceClient::Options o;
  o.backend = core::Backend::kSim;
  o.spec.protocol = core::Protocol::kMultiPaxos;
  o.spec.apply(core::TimeoutProfile::many_core());
  o.spec.workload.request_timeout = 10 * kMillisecond;
  o.spec.engine.batch.max_commands = 8;
  o.spec.engine.batch.flush_after = 50 * kMicrosecond;  // fixed hold: both join one batch
  ServiceClient svc(o);
  Session& s = svc.session(0);
  s.enable_near_cache();
  AsyncClientEngine& client = s.group_client(s.group_of(6));
  client.submit(Op::kWrite, 6, 1).wait();  // straight to the group: nothing cached

  SubmitHandle read = s.submit(Op::kRead, 6, 0);  // a miss: nothing cached for 6
  SubmitHandle write = s.submit(Op::kWrite, 6, 2);
  EXPECT_EQ(read.wait(), 1u);
  write.wait();

  // They decided in one instance, read first.
  const consensus::ReplicatedLog* log = &svc.deployment().group(0).multi_paxos(0)->log();
  bool shared = false;
  for (consensus::Instance in = log->first_gap() - 1; in >= 0 && !log->is_trimmed(in); --in) {
    const consensus::Batch& b = *log->get_batch(in);
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
      shared |= b[i].op == Op::kRead && b[i].key == 6 && b[i + 1].op == Op::kWrite &&
                b[i + 1].key == 6 && b[i + 1].value == 2;
    }
  }
  ASSERT_TRUE(shared) << "the read and the write did not decide in one instance";

  EXPECT_LT(read.lease_epoch(), write.lease_epoch());
  EXPECT_EQ(client.latest_epoch(), write.lease_epoch());
  EXPECT_NE(read.lease_epoch(), client.latest_epoch())
      << "the read's value would be served from the near-cache as current";
  EXPECT_EQ(s.execute(Op::kRead, 6, 0), 2u);
}

TEST(SnapshotTxn, ReadOnlyCutIsConsistentAcrossGroupsUnderWriters) {
  ServiceClient::Options o = lease_opts(core::Backend::kSim, core::Protocol::kMultiPaxos);
  o.groups = 2;
  ServiceClient svc(o);
  Session& s = svc.session(0);

  // Two keys in different groups carrying the invariant k1 + k2 == 100.
  std::uint64_t k1 = 0, k2 = 1;
  while (svc.group_of(k2) == svc.group_of(k1)) ++k2;
  ASSERT_EQ(s.txn().put(k1, 50).put(k2, 50).commit().wait(), TxnState::kCommitted);

  int committed_cuts = 0;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    // The writer transaction is launched (prepares in flight) but not yet
    // decided while the reader's version sandwich runs.
    TxnHandle writer = s.txn().put(k1, 50 + i).put(k2, 50 - i).commit();
    TxnHandle reader = s.txn().get(k1).get(k2).commit();
    EXPECT_EQ(reader.id(), consensus::kNoTxn);  // no 2PC round, no locks
    const TxnState cut = reader.wait();
    if (cut == TxnState::kCommitted) {
      ++committed_cuts;
      EXPECT_EQ(reader.value(0) + reader.value(1), 100u)
          << "snapshot mixed two atomic writes";
    }
    ASSERT_EQ(writer.wait(), TxnState::kCommitted);
  }
  EXPECT_GT(committed_cuts, 0);

  // After the last writer settles, single-key reads see its pair intact.
  EXPECT_EQ(s.execute(Op::kRead, k1, 0) + s.execute(Op::kRead, k2, 0), 100u);
}

}  // namespace
}  // namespace ci::client
