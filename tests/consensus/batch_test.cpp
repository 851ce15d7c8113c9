// BatchPolicy / Batcher unit tests: the flush-timer edges the batching
// layer's correctness rests on — empty flush, byte-budget overflow, the
// single-oversized-command rule, group-commit accumulation, and the
// bit-identical unbatched degenerate case.
#include "consensus/batch.hpp"

#include <gtest/gtest.h>

namespace ci::consensus {
namespace {

Command cmd(std::uint32_t seq) {
  Command c;
  c.client = 9;
  c.seq = seq;
  c.op = Op::kWrite;
  c.key = seq;
  return c;
}

TEST(BatchPolicy, DefaultIsUnbatched) {
  const BatchPolicy p;
  EXPECT_FALSE(p.batching());
  EXPECT_EQ(p.commands_cap(), 1);
}

TEST(BatchPolicy, CapRespectsCompileTimeCeiling) {
  BatchPolicy p;
  p.max_commands = kMaxCommandsPerBatch * 10;
  EXPECT_EQ(p.commands_cap(), kMaxCommandsPerBatch);
}

TEST(BatchPolicy, MaxBytesShrinksTheCap) {
  BatchPolicy p;
  p.max_commands = 8;
  p.max_bytes = 3 * static_cast<std::int32_t>(sizeof(Command));
  EXPECT_EQ(p.commands_cap(), 3);  // byte budget binds before max_commands
}

TEST(BatchPolicy, SingleOversizedCommandStillTravels) {
  // Commands are indivisible: a byte budget below one command must not
  // wedge the pipeline — the command goes alone.
  BatchPolicy p;
  p.max_commands = 8;
  p.max_bytes = static_cast<std::int32_t>(sizeof(Command)) / 2;
  EXPECT_EQ(p.commands_cap(), 1);
}

TEST(Batcher, EmptyNeverReadyAndTakeYieldsNothing) {
  Batcher b(BatchPolicy{});
  EXPECT_FALSE(b.ready(/*now=*/123, /*outstanding=*/0));
  EXPECT_TRUE(b.take().empty());  // empty flush: no phantom batch
  EXPECT_TRUE(b.drain().empty());
}

TEST(Batcher, UnbatchedPolicyFlushesEveryCommandAlone) {
  Batcher b(BatchPolicy{});
  b.push(cmd(1), 0);
  b.push(cmd(2), 0);
  // Legacy regime: ready regardless of in-flight instances...
  EXPECT_TRUE(b.ready(0, /*outstanding=*/5));
  // ...and one command per take.
  EXPECT_EQ(b.take().size(), 1u);
  EXPECT_EQ(b.take().size(), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, FullBatchIsAlwaysReady) {
  BatchPolicy p;
  p.max_commands = 4;
  Batcher b(p);
  for (std::uint32_t s = 1; s <= 4; ++s) b.push(cmd(s), 0);
  EXPECT_TRUE(b.ready(0, /*outstanding=*/7));  // full beats a busy pipeline
  const Batch out = b.take();
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t s = 1; s <= 4; ++s) EXPECT_EQ(out[s - 1].seq, s);  // FIFO
}

TEST(Batcher, PartialBatchWaitsWhileInstancesAreInFlight) {
  // Group commit: in-flight decides — not timers — flush the backlog.
  BatchPolicy p;
  p.max_commands = 8;
  Batcher b(p);
  b.push(cmd(1), 0);
  b.push(cmd(2), 0);
  EXPECT_FALSE(b.ready(1 * kSecond, /*outstanding=*/1));
  EXPECT_TRUE(b.ready(1 * kSecond, /*outstanding=*/0));
  EXPECT_EQ(b.take().size(), 2u);
}

TEST(Batcher, IdleFlushHonorsFlushAfter) {
  BatchPolicy p;
  p.max_commands = 8;
  p.flush_after = 100 * kMicrosecond;
  Batcher b(p);
  b.push(cmd(1), /*now=*/1000);
  // Idle pipeline, but the lone command has not waited long enough.
  EXPECT_FALSE(b.ready(1000, 0));
  EXPECT_FALSE(b.ready(1000 + 99 * kMicrosecond, 0));
  EXPECT_TRUE(b.ready(1000 + 100 * kMicrosecond, 0));
}

TEST(Batcher, TakeIsCappedAndKeepsTheRemainder) {
  BatchPolicy p;
  p.max_commands = 3;
  Batcher b(p);
  for (std::uint32_t s = 1; s <= 7; ++s) b.push(cmd(s), 0);
  EXPECT_EQ(b.take().size(), 3u);
  EXPECT_EQ(b.take().size(), 3u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Batcher, PushFrontIsOverdueAndOrderedFirst) {
  BatchPolicy p;
  p.max_commands = 4;
  p.flush_after = 1 * kSecond;
  Batcher b(p);
  b.push(cmd(2), /*now=*/0);
  b.push_front(cmd(1));  // a race loser re-queued
  EXPECT_TRUE(b.ready(/*now=*/0, /*outstanding=*/0));  // overdue despite flush_after
  const Batch out = b.take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[1].seq, 2u);
}

TEST(Batcher, DrainPreservesFifoOrder) {
  BatchPolicy p;
  p.max_commands = 4;
  Batcher b(p);
  for (std::uint32_t s = 1; s <= 5; ++s) b.push(cmd(s), 0);
  const std::vector<Command> all = b.drain();
  ASSERT_EQ(all.size(), 5u);
  for (std::uint32_t s = 1; s <= 5; ++s) EXPECT_EQ(all[s - 1].seq, s);
  EXPECT_TRUE(b.empty());
}

TEST(Batcher, AdaptiveFlushesLoneCommandWithNoGapEstimate) {
  // First-ever arrival: no inter-arrival estimate exists, so holding would
  // be a pure latency tax — the command proposes immediately.
  BatchPolicy p;
  p.max_commands = 8;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  p.flush_after = 100 * kMicrosecond;
  Batcher b(p);
  b.push(cmd(1), /*now=*/1000);
  EXPECT_EQ(b.ewma_gap(), 0);
  EXPECT_TRUE(b.ready(1000, /*outstanding=*/0));
}

TEST(Batcher, AdaptiveFlushesImmediatelyWhenArrivalsAreSparse) {
  // Gap estimate beyond the budget: the next arrival will not show up in
  // time, so waiting buys no fill — p99 at low offered load approaches
  // batch=1 latency.
  BatchPolicy p;
  p.max_commands = 8;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  p.flush_after = 100 * kMicrosecond;
  Batcher b(p);
  b.push(cmd(1), /*now=*/0);
  (void)b.take();
  b.push(cmd(2), /*now=*/5 * kMillisecond);  // 5 ms gap >> 100 us budget
  EXPECT_GE(b.ewma_gap(), p.flush_after);
  EXPECT_TRUE(b.ready(5 * kMillisecond, /*outstanding=*/0));
}

TEST(Batcher, AdaptiveHoldsAFewGapsWhenCompanyIsImminent) {
  // Dense arrivals (2 us apart): the hold is kAdaptiveHoldGaps * gap, far
  // below the fixed timer — company is gathered without paying flush_after.
  BatchPolicy p;
  p.max_commands = 64;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  p.flush_after = 100 * kMicrosecond;
  Batcher b(p);
  Nanos now = 0;
  for (std::uint32_t s = 1; s <= 4; ++s) {
    b.push(cmd(s), now);
    now += 2 * kMicrosecond;
  }
  const Nanos gap = b.ewma_gap();
  ASSERT_GT(gap, 0);
  ASSERT_LT(gap, p.flush_after);
  const Nanos hold = BatchPolicy::kAdaptiveHoldGaps * gap;
  // Oldest command enqueued at 0: not ready before the hold elapses...
  EXPECT_FALSE(b.ready(hold - 1, /*outstanding=*/0));
  // ...ready right at it — two orders of magnitude before flush_after.
  EXPECT_TRUE(b.ready(hold, /*outstanding=*/0));
  EXPECT_LT(hold, p.flush_after / 5);
}

TEST(Batcher, AdaptiveHoldIsCappedByTheBudget) {
  // Gap just under the budget: kAdaptiveHoldGaps * gap would exceed it, so
  // the budget caps the hold — adaptive never waits longer than fixed.
  BatchPolicy p;
  p.max_commands = 64;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  p.flush_after = 100 * kMicrosecond;
  Batcher b(p);
  b.push(cmd(1), /*now=*/0);
  (void)b.take();
  b.push(cmd(2), /*now=*/90 * kMicrosecond);  // gap 90 us, x8 = 720 us > budget
  // One stale sample dominates the EWMA here; the estimate sits below the
  // budget, so the hold engages but must clamp to flush_after.
  ASSERT_LT(b.ewma_gap(), p.flush_after);
  const Nanos enq = 90 * kMicrosecond;
  EXPECT_FALSE(b.ready(enq + p.flush_after - 1, /*outstanding=*/0));
  EXPECT_TRUE(b.ready(enq + p.flush_after, /*outstanding=*/0));
}

TEST(Batcher, AdaptiveFlushesALoneCommandAfterASilenceLongerThanTheBudget) {
  // A burst drives the gap estimate toward zero; one later arrival after a
  // silence past the budget leaves it well under the budget, yet that
  // silence is the better forecast: the lone command proposes at once
  // instead of holding the whole budget.
  BatchPolicy p;
  p.max_commands = 64;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  p.flush_after = 100 * kMicrosecond;
  Batcher b(p);
  for (std::uint32_t s = 1; s <= 8; ++s) b.push(cmd(s), /*now=*/s * 100);
  (void)b.take();
  const Nanos late = 300 * kMicrosecond;
  b.push(cmd(9), late);
  ASSERT_LT(b.ewma_gap(), p.flush_after);  // the estimate alone would hold
  EXPECT_TRUE(b.ready(late, /*outstanding=*/0));
  // The next arrival comes soon after: the hold engages again.
  b.push(cmd(10), late + 10 * kMicrosecond);
  (void)b.take();
  b.push(cmd(11), late + 20 * kMicrosecond);
  EXPECT_FALSE(b.ready(late + 20 * kMicrosecond, /*outstanding=*/0));
}

TEST(Batcher, AdaptiveDefaultBudgetAppliesWhenFlushAfterUnset) {
  BatchPolicy p;
  p.max_commands = 8;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  EXPECT_EQ(p.adaptive_hold_budget(), BatchPolicy::kAdaptiveDefaultHold);
  p.flush_after = 50 * kMicrosecond;
  EXPECT_EQ(p.adaptive_hold_budget(), 50 * kMicrosecond);
}

TEST(Batcher, AdaptiveFullBatchAndBusyPipelineRulesUnchanged) {
  // The adaptive rule only governs the idle-partial case: a full batch is
  // always ready, and a partial one still waits while instances are in
  // flight (group commit).
  BatchPolicy p;
  p.max_commands = 4;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  Batcher b(p);
  Nanos now = 0;
  for (std::uint32_t s = 1; s <= 2; ++s) {
    b.push(cmd(s), now);
    now += 1 * kMicrosecond;
  }
  EXPECT_FALSE(b.ready(now, /*outstanding=*/3));  // partial + busy: hold
  for (std::uint32_t s = 3; s <= 4; ++s) {
    b.push(cmd(s), now);
    now += 1 * kMicrosecond;
  }
  EXPECT_TRUE(b.ready(now, /*outstanding=*/3));  // full beats a busy pipeline
}

TEST(Batcher, AdaptivePushFrontStaysOverdueAndSkipsTheEstimate) {
  BatchPolicy p;
  p.max_commands = 8;
  p.flush_mode = BatchPolicy::FlushMode::kAdaptive;
  p.flush_after = 1 * kSecond;
  Batcher b(p);
  b.push_front(cmd(1));  // a race loser re-queued
  EXPECT_EQ(b.ewma_gap(), 0);  // re-queues are not arrivals
  EXPECT_TRUE(b.ready(/*now=*/0, /*outstanding=*/0));
}

TEST(BatchWire, PackUnpackRoundTrip) {
  Batch in;
  for (std::uint32_t s = 1; s <= 5; ++s) in.push_back(cmd(s));
  Command buf[kMaxCommandsPerBatch];
  const std::int32_t n = pack_batch(in, buf);
  EXPECT_EQ(n, 5);
  EXPECT_EQ(unpack_batch(buf, n), in);
}

}  // namespace
}  // namespace ci::consensus
