// The generic client layer: SubmitHandle semantics, ServiceClient over a
// CUSTOM state machine (the "any consensus::StateMachine" promise), and the
// kClientCmdBatch run path end to end.
#include "client/service_client.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consensus/multi_paxos.hpp"
#include "core/one_paxos.hpp"

namespace ci::client {
namespace {

// A non-KV service: apply() appends the value to a per-replica journal and
// returns the new length; read(k) returns the k-th appended value. Proves
// the layer replicates whatever machine the spec supplies.
class JournalStateMachine final : public consensus::StateMachine {
 public:
  std::uint64_t apply(const Command& cmd) override {
    if (cmd.op != Op::kWrite) return entries_.size();
    entries_.push_back(cmd.value);
    return entries_.size();
  }
  std::uint64_t read(std::uint64_t i) const override {
    return i < entries_.size() ? entries_[static_cast<std::size_t>(i)] : 0;
  }

 private:
  std::vector<std::uint64_t> entries_;
};

ServiceClient::Options sim_opts() {
  ServiceClient::Options o;
  o.backend = core::Backend::kSim;
  o.spec.protocol = core::Protocol::kMultiPaxos;
  return o;
}

TEST(ServiceClient, ServesACustomStateMachine) {
  ServiceClient::Options o = sim_opts();
  o.spec.state_machine_factory = [](consensus::NodeId) {
    return std::make_unique<JournalStateMachine>();
  };
  ServiceClient svc(o);
  Session& s = svc.session(0);
  EXPECT_EQ(s.execute(Op::kWrite, 0, 42), 1u);  // journal length after append
  EXPECT_EQ(s.execute(Op::kWrite, 0, 43), 2u);
  EXPECT_EQ(svc.state_machine(0, 0)->read(0), 42u);
  EXPECT_EQ(svc.state_machine(0, 0)->read(1), 43u);
}

TEST(ServiceClient, SubmitHandlesCompleteIndependently) {
  ServiceClient svc(sim_opts());
  Session& s = svc.session(0);
  SubmitHandle a = s.submit(Op::kWrite, 7, 70);
  SubmitHandle b = s.submit(Op::kWrite, 8, 80);
  SubmitHandle c = s.submit(Op::kWrite, 7, 71);
  EXPECT_TRUE(a.valid() && b.valid() && c.valid());
  EXPECT_EQ(c.wait(), 70u);  // waiting out of order is fine; c sees a's write
  EXPECT_EQ(a.wait(), 0u);
  EXPECT_EQ(b.wait(), 0u);
  EXPECT_TRUE(a.done() && b.done() && c.done());
  EXPECT_EQ(s.execute(Op::kRead, 7, 0), 71u);
  SubmitHandle none;
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(none.done());
}

TEST(ServiceClient, FlushIsACommitBarrier) {
  ServiceClient svc(sim_opts());
  Session& s = svc.session(0);
  for (std::uint64_t i = 1; i <= 100; ++i) s.submit(Op::kWrite, 5, i);  // handles dropped
  s.flush();
  EXPECT_EQ(s.execute(Op::kRead, 5, 0), 100u);
}

// submit_run sends 2..kMaxClientBatchCommands commands per kClientCmdBatch
// frame; the demux decomposes them, so order and per-command results are
// exactly as if they had been submitted singly.
class ClientRuns : public ::testing::TestWithParam<core::Backend> {};

TEST_P(ClientRuns, SubmitRunPreservesOrderAndResults) {
  ServiceClient::Options o = sim_opts();
  o.backend = GetParam();
  ServiceClient svc(o);
  Session& s = svc.session(0);
  AsyncClientEngine& eng = s.group_client(0);

  // A run over one key: each command's result is the previous one's value,
  // which pins both delivery order and exactly-once application.
  std::vector<Command> run;
  for (std::uint64_t i = 1; i <= 12; ++i) {  // > kMaxClientBatchCommands: chunks
    Command c;
    c.op = Op::kWrite;
    c.key = 9;
    c.value = i;
    run.push_back(c);
  }
  std::vector<SubmitHandle> handles = eng.submit_run(run);
  ASSERT_EQ(handles.size(), run.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].wait(), static_cast<std::uint64_t>(i)) << "position " << i;
  }
  EXPECT_EQ(s.execute(Op::kRead, 9, 0), 12u);

  // A 2-command run (the smallest batch frame) and a 1-command "run" (which
  // must fall back to the legacy frame) both work.
  std::vector<Command> pair(2);
  pair[0].op = pair[1].op = Op::kWrite;
  pair[0].key = pair[1].key = 10;
  pair[0].value = 1;
  pair[1].value = 2;
  for (SubmitHandle& h : eng.submit_run(pair)) h.wait();
  std::vector<Command> solo(1);
  solo[0].op = Op::kWrite;
  solo[0].key = 10;
  solo[0].value = 3;
  for (SubmitHandle& h : eng.submit_run(solo)) h.wait();
  EXPECT_EQ(s.execute(Op::kRead, 10, 0), 3u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ClientRuns,
                         ::testing::Values(core::Backend::kSim, core::Backend::kRt),
                         [](const auto& info) {
                           return std::string(core::backend_name(info.param));
                         });

TEST(ServiceClient, ShardedSessionsRouteByKey) {
  ServiceClient::Options o = sim_opts();
  o.groups = 4;
  ServiceClient svc(o);
  Session& s = svc.session(0);
  EXPECT_EQ(s.num_groups(), 4);
  bool seen[4] = {false, false, false, false};
  for (std::uint64_t k = 0; k < 64; ++k) {
    const GroupId g = s.group_of(k);
    ASSERT_GE(g, 0);
    ASSERT_LT(g, 4);
    EXPECT_EQ(g, svc.group_of(k));
    seen[g] = true;
    s.submit(Op::kWrite, k, k + 1);
  }
  s.flush();
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);  // hash spreads
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_EQ(s.execute(Op::kRead, k, 0), k + 1);
}

// ---- Session wake rules on the simulator (DESIGN.md §1i) ----

TEST(SimWake, WaitResumesAtTheReplysVirtualTime) {
  ServiceClient svc(sim_opts());
  Session& s = svc.session(0);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    SubmitHandle h = s.submit(Op::kWrite, 1, i);
    h.wait();
    EXPECT_EQ(svc.sim_now(), h.completed_at()) << "write " << i;
  }
  SubmitHandle read = s.submit(Op::kRead, 1, 0);
  EXPECT_EQ(read.wait(), 5u);
  EXPECT_EQ(svc.sim_now(), read.completed_at());
}

TEST(SimWake, LoneLeaseReadFinishesWithinOneTick) {
  ServiceClient::Options o = sim_opts();
  o.spec.apply(core::TimeoutProfile::many_core());
  o.spec.engine.lease_duration = 4 * kMillisecond;
  o.spec.engine.lease_epsilon = 400 * kMicrosecond;
  ServiceClient svc(o);
  Session& s = svc.session(0);
  s.execute(Op::kWrite, 3, 33);
  svc.sim_run_until(svc.sim_now() + 10 * kMillisecond);  // heartbeats grant the lease
  const auto lease_reads = [&] {
    std::uint64_t n = 0;
    for (consensus::NodeId r = 0; r < svc.num_replicas(); ++r) {
      n += svc.deployment().group(0).multi_paxos(r)->lease_reads();
    }
    return n;
  };
  const std::uint64_t before = lease_reads();
  const Nanos tick = o.spec.sim.tick_period;
  std::uint64_t reads = 0;
  for (Nanos gap = kMicrosecond; gap <= tick; gap += kMicrosecond) {
    // Sweep the submit instant across a whole tick period: an idle session
    // sends at submit, so no read waits for the conduit's next tick.
    svc.sim_run_until(svc.sim_now() + gap);
    const Nanos submitted = svc.sim_now();
    SubmitHandle h = s.submit(Op::kRead, 3, 0);
    EXPECT_EQ(h.wait(), 33u);
    EXPECT_LT(h.completed_at() - submitted, tick) << "after a " << gap << " ns gap";
    ++reads;
  }
  EXPECT_EQ(lease_reads() - before, reads);
}

TEST(SimWake, SubmitWithRepliesOutstandingSendsAtSubmit) {
  // Coalesced frames keep the conduit's CPU free a few us after it sends
  // 63 commands, long before their replies are back.
  ServiceClient::Options o = sim_opts();
  o.spec.workload.client_coalesce = consensus::kMaxClientBatchCommands;
  ServiceClient svc(o);
  Session& s = svc.session(0);
  AsyncClientEngine& eng = s.group_client(0);
  const Nanos tick = sim_opts().spec.sim.tick_period;
  EXPECT_EQ(eng.doorbells(), 0u);
  std::uint64_t rings = 0;
  std::uint64_t launched = 0;
  std::uint64_t key = 0;
  // Sweep the late submit across a whole tick period, so some instant falls
  // far from the conduit's periodic tick.
  for (Nanos gap = kMicrosecond; gap <= tick; gap += 3 * kMicrosecond) {
    svc.sim_run_until(svc.sim_now() + gap);
    for (std::int32_t i = 0; i + 1 < AsyncClientEngine::kMaxOutstanding; ++i) {
      s.submit(Op::kWrite, key++, 1);
    }
    // Submits at one virtual instant share a single kick.
    EXPECT_EQ(eng.doorbells(), ++rings) << "after a " << gap << " ns gap";
    // The kicked tick sends all 63 in a few frames; no reply is back yet.
    svc.sim_run_until(svc.sim_now() + 5 * kMicrosecond);
    ASSERT_EQ(eng.available(), 1) << "63 commands await their replies";
    const QueueWait before = eng.queue_wait();
    ASSERT_EQ(before.count, launched + 63);
    // The 64th rings again and leaves at its submit instant, not at the
    // conduit's next periodic tick.
    SubmitHandle late = s.submit(Op::kWrite, key++, 2);
    EXPECT_EQ(eng.doorbells(), ++rings);
    svc.sim_run_until(svc.sim_now() + kMicrosecond);
    const QueueWait after = eng.queue_wait();
    ASSERT_EQ(after.count, before.count + 1) << "the late command was sent";
    EXPECT_EQ(after.total_ns, before.total_ns) << "after a " << gap << " ns gap";
    EXPECT_EQ(late.wait(), 0u);
    s.flush();
    launched = after.count;
  }
  for (std::uint64_t k = 0; k < key; ++k) EXPECT_NE(s.execute(Op::kRead, k, 0), 0u);
}

// Stage 1 of the latency split (client queue/coalesce): one submit every
// 6 us, below saturation but with several replies outstanding. Every
// submit rings, so a command waits only while the conduit's CPU is busy;
// with the idle-only bell it waited for the periodic tick, half a 20 us
// period on average.
TEST(SimWake, QueueWaitStaysBelowOneMessageCost) {
  ServiceClient svc(sim_opts());
  Session& s = svc.session(0);
  AsyncClientEngine& eng = s.group_client(0);
  constexpr std::int32_t kOps = 4000;
  std::int32_t overlapped = 0;  // submits that found a reply outstanding
  for (std::int32_t i = 0; i < kOps; ++i) {
    svc.sim_run_until(svc.sim_now() + 6 * kMicrosecond);
    if (eng.available() < AsyncClientEngine::kMaxOutstanding) ++overlapped;
    s.submit(Op::kWrite, static_cast<std::uint64_t>(i % 500), static_cast<std::uint64_t>(i));
  }
  s.flush();
  const QueueWait w = eng.queue_wait();
  ASSERT_EQ(w.count, static_cast<std::uint64_t>(kOps));
  EXPECT_GT(overlapped, kOps / 2) << "the stream must overlap replies";
  EXPECT_LT(w.total_ns / static_cast<Nanos>(w.count), kMicrosecond)
      << "max " << w.max_ns << " ns";
}

// ---- Cold start on the simulator (DESIGN.md §1i) ----
// Construction advances no virtual time; the first wait drives bring-up.
// With a pre-agreed leader the first write costs one commit round, and
// reads go through the log until the first lease round ends.

struct ColdStartCase {
  const char* name;
  core::Protocol protocol;
  std::int32_t groups;
};

class ColdStart : public ::testing::TestWithParam<ColdStartCase> {
 protected:
  static ServiceClient::Options options() {
    ServiceClient::Options o;
    o.backend = core::Backend::kSim;
    o.groups = GetParam().groups;
    o.spec.protocol = GetParam().protocol;
    o.spec.apply(core::TimeoutProfile::many_core());
    o.spec.engine.lease_duration = 4 * kMillisecond;
    return o;
  }

  static std::uint64_t lease_reads(ServiceClient& svc) {
    std::uint64_t n = 0;
    for (consensus::GroupId g = 0; g < svc.deployment().num_groups(); ++g) {
      core::Deployment& d = svc.deployment().group(g);
      for (consensus::NodeId r = 0; r < svc.num_replicas(); ++r) {
        if (auto* e = d.one_paxos(r)) n += e->lease_reads();
        if (auto* e = d.multi_paxos(r)) n += e->lease_reads();
      }
    }
    return n;
  }
};

TEST_P(ColdStart, ConstructionAdvancesNoVirtualTime) {
  ServiceClient svc(options());
  EXPECT_EQ(svc.sim_now(), 0);
}

TEST_P(ColdStart, FirstWriteCommitsInOneRound) {
  ServiceClient svc(options());
  SubmitHandle w = svc.session(0).submit(Op::kWrite, 7, 70);
  w.wait();
  EXPECT_LE(w.completed_at(), 20 * kMicrosecond);
}

TEST_P(ColdStart, ReadsGoThroughTheLogUntilTheFirstLeaseRound) {
  ServiceClient svc(options());
  Session& s = svc.session(0);
  s.execute(Op::kWrite, 7, 70);
  const Nanos heartbeat = options().spec.engine.heartbeat_period;
  ASSERT_LT(svc.sim_now(), heartbeat);
  EXPECT_EQ(s.execute(Op::kRead, 7, 0), 70u);
  EXPECT_EQ(lease_reads(svc), 0u) << "a read before the first lease round skipped the log";
  // The first heartbeat leaves on a leader's first tick at or after
  // heartbeat_period (node ticks are staggered over one tick period), and
  // its grants are back within another tick period.
  svc.sim_run_until(heartbeat + 2 * options().spec.sim.tick_period);
  EXPECT_EQ(s.execute(Op::kRead, 7, 0), 70u);
  EXPECT_GT(lease_reads(svc), 0u) << "no read was served under the lease";
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ColdStart,
    ::testing::Values(ColdStartCase{"OnePaxos", core::Protocol::kOnePaxos, 1},
                      ColdStartCase{"MultiPaxos", core::Protocol::kMultiPaxos, 1},
                      ColdStartCase{"MultiPaxos4Groups", core::Protocol::kMultiPaxos, 4}),
    [](const ::testing::TestParamInfo<ColdStartCase>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace ci::client
