#include "consensus/state_machine.hpp"

#include <gtest/gtest.h>

namespace ci::consensus {
namespace {

Command make(NodeId client, std::uint32_t seq, Op op, std::uint64_t key, std::uint64_t value) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.op = op;
  c.key = key;
  c.value = value;
  return c;
}

TEST(MapStateMachine, WriteThenRead) {
  MapStateMachine sm;
  EXPECT_EQ(sm.apply(make(1, 1, Op::kWrite, 7, 42)), 0u);  // returns old value
  EXPECT_EQ(sm.apply(make(1, 2, Op::kRead, 7, 0)), 42u);
  EXPECT_EQ(sm.read(7), 42u);
  EXPECT_EQ(sm.size(), 1u);
}

TEST(MapStateMachine, OverwriteReturnsOld) {
  MapStateMachine sm;
  sm.apply(make(1, 1, Op::kWrite, 7, 1));
  EXPECT_EQ(sm.apply(make(1, 2, Op::kWrite, 7, 2)), 1u);
  EXPECT_EQ(sm.read(7), 2u);
}

TEST(MapStateMachine, ReadMissingKeyIsZero) {
  MapStateMachine sm;
  EXPECT_EQ(sm.read(99), 0u);
}

TEST(Executor, AppliesOnce) {
  MapStateMachine sm;
  Executor ex(&sm);
  const Command w = make(1, 1, Op::kWrite, 5, 10);
  EXPECT_FALSE(ex.apply(w).duplicate);
  EXPECT_TRUE(ex.apply(w).duplicate);  // retry decided twice
  EXPECT_EQ(sm.read(5), 10u);
}

TEST(Executor, DuplicateDoesNotReapply) {
  MapStateMachine sm;
  Executor ex(&sm);
  ex.apply(make(1, 1, Op::kWrite, 5, 10));
  ex.apply(make(1, 2, Op::kWrite, 5, 20));
  // A stale duplicate of seq 1 must not clobber seq 2's effect.
  EXPECT_TRUE(ex.apply(make(1, 1, Op::kWrite, 5, 10)).duplicate);
  EXPECT_EQ(sm.read(5), 20u);
}

TEST(Executor, SeparateClientsTrackedIndependently) {
  MapStateMachine sm;
  Executor ex(&sm);
  EXPECT_FALSE(ex.apply(make(1, 1, Op::kWrite, 1, 1)).duplicate);
  EXPECT_FALSE(ex.apply(make(2, 1, Op::kWrite, 2, 2)).duplicate);
  EXPECT_TRUE(ex.apply(make(1, 1, Op::kWrite, 1, 1)).duplicate);
}

TEST(Executor, NoopsAreTransparent) {
  Executor ex(nullptr);
  Command noop;  // default: kNoop, no client
  EXPECT_FALSE(ex.apply(noop).duplicate);
  EXPECT_FALSE(ex.apply(noop).duplicate);  // noops never dedup
}

TEST(Executor, ReadResultComesFromStateMachine) {
  MapStateMachine sm;
  Executor ex(&sm);
  ex.apply(make(1, 1, Op::kWrite, 3, 33));
  const auto applied = ex.apply(make(2, 1, Op::kRead, 3, 0));
  EXPECT_FALSE(applied.duplicate);
  EXPECT_EQ(applied.result, 33u);
}

TEST(Executor, DuplicateReturnsCachedResult) {
  // A client retry that straddles a leader change decides twice; the second
  // execution is suppressed but must answer with the original result, or
  // the client would see put(k,v) "return" 0 instead of the old value.
  MapStateMachine sm;
  Executor ex(&sm);
  ex.apply(make(1, 1, Op::kWrite, 5, 50));
  const auto dup = ex.apply(make(1, 2, Op::kWrite, 5, 51));
  EXPECT_FALSE(dup.duplicate);
  EXPECT_EQ(dup.result, 50u);  // old value
  const auto retry = ex.apply(make(1, 2, Op::kWrite, 5, 51));
  EXPECT_TRUE(retry.duplicate);
  EXPECT_EQ(retry.result, 50u);  // cached original result
  EXPECT_EQ(sm.read(5), 51u);    // state unchanged by the retry
}

TEST(Executor, OlderSeqLandingAfterANewerOneStillApplies) {
  // A pipelined client's retry can put seq 1 into the log after seq 2. It
  // was never applied, so it must apply (the client is told it committed),
  // in log order; a second copy of either is then a true duplicate that
  // answers with its own original result.
  MapStateMachine sm;
  Executor ex(&sm);
  const auto second = ex.apply(make(1, 2, Op::kWrite, 5, 20));
  EXPECT_FALSE(second.duplicate);
  EXPECT_EQ(second.result, 0u);
  const auto first = ex.apply(make(1, 1, Op::kWrite, 5, 10));
  EXPECT_FALSE(first.duplicate);
  EXPECT_EQ(first.result, 20u);        // applied after seq 2
  EXPECT_EQ(sm.read(5), 10u);
  EXPECT_EQ(sm.versioned_read(5), 2u);  // both writes took effect
  const auto dup1 = ex.apply(make(1, 1, Op::kWrite, 5, 10));
  const auto dup2 = ex.apply(make(1, 2, Op::kWrite, 5, 20));
  EXPECT_TRUE(dup1.duplicate && dup2.duplicate);
  EXPECT_EQ(dup1.result, 20u);
  EXPECT_EQ(dup2.result, 0u);
  EXPECT_EQ(sm.versioned_read(5), 2u);
}

TEST(Executor, NullStateMachineExecutesWithZeroResults) {
  Executor ex(nullptr);
  const auto applied = ex.apply(make(1, 1, Op::kWrite, 3, 33));
  EXPECT_FALSE(applied.duplicate);
  EXPECT_EQ(applied.result, 0u);
}

// ---- Transaction hooks (cross-shard 2PC participation, DESIGN.md §1d) ----

Command make_txn(NodeId client, std::uint32_t seq, Op op, TxnId txn, std::uint64_t key,
                 std::uint64_t value) {
  Command c = make(client, seq, op, key, value);
  c.txn = txn;
  return c;
}

TEST(MapStateMachine, PrepareStagesAndLocksCommitApplies) {
  MapStateMachine sm;
  const TxnId t = make_txn_id(9, 1);
  EXPECT_EQ(sm.txn_prepare(make_txn(9, 1, Op::kTxnPrepare, t, 1, 11)), 1u);  // vote yes
  EXPECT_EQ(sm.txn_prepare(make_txn(9, 2, Op::kTxnPrepare, t, 2, 22)), 1u);
  EXPECT_EQ(sm.locked_keys(), 2u);
  EXPECT_TRUE(sm.has_txn_state(t));
  EXPECT_EQ(sm.read(1), 0u);  // staged, not applied
  EXPECT_EQ(sm.txn_commit(t), 1u);
  EXPECT_EQ(sm.read(1), 11u);
  EXPECT_EQ(sm.read(2), 22u);
  EXPECT_EQ(sm.locked_keys(), 0u);
  EXPECT_FALSE(sm.has_txn_state(t));
  EXPECT_EQ(sm.txn_commit(t), 1u);  // duplicate commit is a harmless no-op
}

TEST(MapStateMachine, ConflictingPrepareVotesNoWithoutStaging) {
  MapStateMachine sm;
  const TxnId a = make_txn_id(9, 1);
  const TxnId b = make_txn_id(9, 2);
  EXPECT_EQ(sm.txn_prepare(make_txn(9, 1, Op::kTxnPrepare, a, 5, 50)), 1u);
  EXPECT_EQ(sm.txn_prepare(make_txn(9, 2, Op::kTxnPrepare, b, 5, 51)), 0u);  // vote no
  EXPECT_FALSE(sm.has_txn_state(b));
  EXPECT_EQ(sm.locked_keys(), 1u);  // only a's lock
  // b's abort (the coordinator aborts after a no vote) releases nothing of
  // a's and is safe with no staged state.
  EXPECT_EQ(sm.txn_abort(b), 1u);
  EXPECT_EQ(sm.locked_keys(), 1u);
  sm.txn_commit(a);
  EXPECT_EQ(sm.read(5), 50u);
  // The key is free again: b's retry can lock it.
  EXPECT_EQ(sm.txn_prepare(make_txn(9, 3, Op::kTxnPrepare, b, 5, 51)), 1u);
}

TEST(MapStateMachine, AbortDiscardsStagedWritesAndReleasesLocks) {
  MapStateMachine sm;
  sm.apply(make(1, 1, Op::kWrite, 7, 70));
  const TxnId t = make_txn_id(2, 1);
  EXPECT_EQ(sm.txn_prepare(make_txn(2, 1, Op::kTxnPrepare, t, 7, 71)), 1u);
  EXPECT_EQ(sm.txn_abort(t), 1u);
  EXPECT_EQ(sm.read(7), 70u);  // old value intact
  EXPECT_EQ(sm.locked_keys(), 0u);
  EXPECT_FALSE(sm.has_txn_state(t));
}

TEST(MapStateMachine, DecideRecordsTheOutcomeUntilTheFinalPrunesIt) {
  MapStateMachine sm;
  const TxnId t = make_txn_id(3, 1);
  EXPECT_EQ(sm.decision(t), -1);
  EXPECT_EQ(sm.txn_decide(t, true), 1u);
  EXPECT_EQ(sm.decision(t), 1);
  EXPECT_EQ(sm.txn_decide(make_txn_id(3, 2), false), 0u);
  EXPECT_EQ(sm.decision(make_txn_id(3, 2)), 0);
  // The final command prunes the record: decisions_ is bounded by LIVE
  // transactions, not by service lifetime.
  sm.txn_commit(t);
  EXPECT_EQ(sm.decision(t), -1);
  sm.txn_abort(make_txn_id(3, 2));
  EXPECT_EQ(sm.decision(make_txn_id(3, 2)), -1);
}

TEST(MapStateMachine, PlainWritesIgnoreTxnLocks) {
  // Locks isolate transactions from each other; single-key commands are
  // linearized by the log independently (documented semantics).
  MapStateMachine sm;
  const TxnId t = make_txn_id(4, 1);
  sm.txn_prepare(make_txn(4, 1, Op::kTxnPrepare, t, 9, 90));
  EXPECT_EQ(sm.apply(make(1, 1, Op::kWrite, 9, 91)), 0u);
  EXPECT_EQ(sm.read(9), 91u);
  sm.txn_commit(t);
  EXPECT_EQ(sm.read(9), 90u);  // staged write applied at commit
}

TEST(Executor, RoutesTxnOpsToHooksWithDedup) {
  MapStateMachine sm;
  Executor ex(&sm);
  const TxnId t = make_txn_id(5, 1);
  const Command prep = make_txn(5, 1, Op::kTxnPrepare, t, 3, 30);
  EXPECT_EQ(ex.apply(prep).result, 1u);  // vote yes
  // A duplicate prepare (client retry straddling a leader change) must not
  // re-stage; the cached vote answers.
  const auto dup = ex.apply(prep);
  EXPECT_TRUE(dup.duplicate);
  EXPECT_EQ(dup.result, 1u);
  EXPECT_EQ(ex.apply(make_txn(5, 2, Op::kTxnDecide, t, 0, 1)).result, 1u);
  EXPECT_EQ(ex.apply(make_txn(5, 3, Op::kTxnCommit, t, 0, 0)).result, 1u);
  EXPECT_EQ(sm.read(3), 30u);
  // A stale duplicate of the prepare arriving after the commit is filtered
  // by seq and cannot re-lock.
  EXPECT_TRUE(ex.apply(prep).duplicate);
  EXPECT_EQ(sm.locked_keys(), 0u);
}

TEST(StateMachine, DefaultHooksVoteYesAndDoNothing) {
  NullStateMachine sm;
  const TxnId t = make_txn_id(6, 1);
  EXPECT_EQ(sm.execute(make_txn(6, 1, Op::kTxnPrepare, t, 1, 2)), 1u);
  EXPECT_EQ(sm.execute(make_txn(6, 2, Op::kTxnDecide, t, 0, 1)), 1u);
  EXPECT_EQ(sm.execute(make_txn(6, 3, Op::kTxnCommit, t, 0, 0)), 1u);
  EXPECT_EQ(sm.execute(make_txn(6, 4, Op::kTxnAbort, t, 0, 0)), 1u);
}

TEST(TxnIds, PackSessionAndCounterNonZero) {
  EXPECT_EQ(make_txn_id(0, 1), 1u);
  EXPECT_NE(make_txn_id(3, 1), make_txn_id(4, 1));
  EXPECT_NE(make_txn_id(3, 1), make_txn_id(3, 2));
  EXPECT_NE(make_txn_id(0, 1), kNoTxn);
}

}  // namespace
}  // namespace ci::consensus
