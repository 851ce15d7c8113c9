#include "consensus/log.hpp"

#include <gtest/gtest.h>

namespace ci::consensus {
namespace {

Command cmd(NodeId client, std::uint32_t seq) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.op = Op::kWrite;
  return c;
}

TEST(ReplicatedLog, StartsEmpty) {
  ReplicatedLog log;
  EXPECT_EQ(log.first_gap(), 0);
  EXPECT_EQ(log.end(), 0);
  EXPECT_FALSE(log.is_learned(0));
  EXPECT_EQ(log.get(0), nullptr);
}

TEST(ReplicatedLog, LearnAdvancesContiguousPrefix) {
  ReplicatedLog log;
  log.learn(0, cmd(1, 1));
  EXPECT_EQ(log.first_gap(), 1);
  log.learn(1, cmd(1, 2));
  EXPECT_EQ(log.first_gap(), 2);
}

TEST(ReplicatedLog, GapHoldsPrefix) {
  ReplicatedLog log;
  log.learn(0, cmd(1, 1));
  log.learn(2, cmd(1, 3));  // gap at 1
  EXPECT_EQ(log.first_gap(), 1);
  EXPECT_EQ(log.end(), 3);
  log.learn(1, cmd(1, 2));  // fill the gap
  EXPECT_EQ(log.first_gap(), 3);
}

TEST(ReplicatedLog, DuplicateLearnSameValueIsIdempotent) {
  ReplicatedLog log;
  log.learn(0, cmd(1, 1));
  log.learn(0, cmd(1, 1));
  EXPECT_EQ(log.first_gap(), 1);
}

TEST(ReplicatedLogDeath, DuplicateLearnDifferentValueAborts) {
  // The consistency property is a hard runtime invariant.
  ReplicatedLog log;
  log.learn(0, cmd(1, 1));
  EXPECT_DEATH(log.learn(0, cmd(2, 9)), "two different values");
}

TEST(ReplicatedLog, DrainExecutesInOrderOnce) {
  ReplicatedLog log;
  log.learn(1, cmd(1, 2));
  std::vector<Instance> seen;
  log.drain([&](Instance in, const Command&) { seen.push_back(in); });
  EXPECT_TRUE(seen.empty());  // gap at 0 blocks execution
  log.learn(0, cmd(1, 1));
  log.drain([&](Instance in, const Command&) { seen.push_back(in); });
  EXPECT_EQ(seen, (std::vector<Instance>{0, 1}));
  log.drain([&](Instance in, const Command&) { seen.push_back(in); });
  EXPECT_EQ(seen.size(), 2u);  // nothing re-executes
  EXPECT_EQ(log.executed_prefix(), 2);
}

TEST(ReplicatedLog, LargeSparseInstances) {
  ReplicatedLog log;
  log.learn(999, cmd(1, 1));
  EXPECT_EQ(log.end(), 1000);
  EXPECT_EQ(log.first_gap(), 0);
  EXPECT_TRUE(log.is_learned(999));
  EXPECT_FALSE(log.is_learned(500));
}

// ---- Trimming: bodies below the floor go, the decided prefix stays ----

ReplicatedLog applied_log(Instance n) {
  ReplicatedLog log;
  for (Instance in = 0; in < n; ++in) log.learn(in, cmd(1, static_cast<std::uint32_t>(in + 1)));
  log.drain([](Instance, const Command&) {});
  return log;
}

TEST(ReplicatedLog, TrimDropsBodiesBelowTheFloorLessTheKeptTail) {
  ReplicatedLog log = applied_log(500);
  log.trim(300);
  const Instance cut = 300 - ReplicatedLog::kKeptTail;
  EXPECT_EQ(log.retained(), static_cast<std::size_t>(500 - cut));
  EXPECT_TRUE(log.is_trimmed(cut - 1));
  EXPECT_FALSE(log.is_trimmed(cut));
  // Below the drop point an instance still reads as decided.
  EXPECT_TRUE(log.is_learned(0));
  EXPECT_TRUE(log.is_learned(cut - 1));
  EXPECT_EQ(log.get(cut)->seq, static_cast<std::uint32_t>(cut + 1));
  EXPECT_EQ(log.first_gap(), 500);
  EXPECT_EQ(log.end(), 500);
  // Trimming never grows or moves back.
  log.trim(100);
  EXPECT_EQ(log.retained(), static_cast<std::size_t>(500 - cut));
}

TEST(ReplicatedLog, TrimNeverPassesTheLocalExecutedPrefix) {
  ReplicatedLog log = applied_log(200);
  log.learn(250, cmd(1, 999));  // decided but not applicable yet (gap at 200)
  log.trim(1000);               // the group's floor is ahead of this replica
  EXPECT_EQ(log.executed_prefix(), 200);
  EXPECT_FALSE(log.is_trimmed(200 - ReplicatedLog::kKeptTail));
  EXPECT_TRUE(log.is_trimmed(200 - ReplicatedLog::kKeptTail - 1));
  // The gap still fills and drains normally after a trim.
  for (Instance in = 200; in < 250; ++in) log.learn(in, cmd(2, static_cast<std::uint32_t>(in)));
  std::vector<Instance> seen;
  log.drain([&](Instance in, const Command&) { seen.push_back(in); });
  EXPECT_EQ(seen.size(), 51u);
  EXPECT_EQ(seen.front(), 200);
  EXPECT_EQ(log.first_gap(), 251);
}

TEST(ReplicatedLog, RelearningATrimmedInstanceIsANoOp) {
  ReplicatedLog log = applied_log(300);
  log.trim(300);
  log.learn(5, cmd(7, 7));  // a late duplicate of a long-applied decision
  EXPECT_TRUE(log.is_trimmed(5));
  EXPECT_EQ(log.first_gap(), 300);
}

TEST(ReplicatedLogDeath, ReadingATrimmedBodyAborts) {
  ReplicatedLog log = applied_log(300);
  log.trim(300);
  EXPECT_DEATH((void)log.get_batch(0), "trimmed");
}

TEST(AppliedFrontier, FloorIsTheLowestReportSilentReplicasPinIt) {
  AppliedFrontier f;
  EXPECT_EQ(f.floor(3, 0, 500), 0);  // nobody reported: nothing may go
  f.report(1, 400);
  EXPECT_EQ(f.floor(3, 0, 500), 0);  // replica 2 still silent
  f.report(2, 300);
  EXPECT_EQ(f.floor(3, 0, 500), 300);
  f.report(2, 200);  // a reordered older report never lowers the floor
  EXPECT_EQ(f.floor(3, 0, 500), 300);
  EXPECT_EQ(f.floor(3, 0, 250), 250);  // the reporter's own prefix counts
}

}  // namespace
}  // namespace ci::consensus
