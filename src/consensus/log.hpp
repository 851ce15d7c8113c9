// The replicated command log: learned (decided) values by instance, plus an
// execution cursor over the contiguous prefix.
//
// Since the batching layer, the value of one instance is a Batch — an
// ordered run of 1..kMaxCommandsPerBatch commands. drain() fans a decided
// batch back out command by command, so execution and delivery reporting
// stay per-command everywhere above this class.
//
// The log is bounded: trim() drops the bodies of applied instances that no
// replica will ask for again (DESIGN.md §1k). Below the drop point an
// instance still reads as learned, but its body is gone, and reading it is
// a hard invariant violation.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "consensus/batch.hpp"
#include "consensus/types.hpp"

namespace ci::consensus {

class ReplicatedLog {
 public:
  // Applied instances trim() keeps below its floor anyway: a fixed tail of
  // recent decided values stays readable for inspection (tests, a
  // debugger), whatever the floor says. Costs at most this many bodies.
  static constexpr Instance kKeptTail = 64;

  // Records the decided value for an instance. Learning the same instance
  // twice is legal (retries, catch-up) but the value must not change —
  // that is the consistency property all our protocols guarantee, so it is
  // enforced here as a hard invariant. Batches compare element-wise: a
  // batch differing in any command (or in length) is a different value.
  // A re-learn below the trim point has nothing left to compare against;
  // every replica applied that instance long ago, so it is dropped.
  void learn(Instance in, const Batch& value) {
    CI_CHECK(in >= 0);
    CI_CHECK(!value.empty());
    if (in < base_) return;
    const auto idx = static_cast<std::size_t>(in - base_);
    if (idx >= entries_.size()) entries_.resize(idx + 1);
    if (entries_[idx].has_value()) {
      CI_CHECK_MSG(*entries_[idx] == value, "two different values learned for one instance");
      return;
    }
    entries_[idx] = value;
    while (first_gap_ < end() && slot(first_gap_).has_value()) first_gap_++;
  }

  void learn(Instance in, const Command& cmd) { learn(in, single_batch(cmd)); }

  bool is_learned(Instance in) const {
    if (in < 0 || in >= end()) return false;
    return in < base_ || slot(in).has_value();
  }

  // True when the instance was decided, applied here and its body dropped.
  bool is_trimmed(Instance in) const { return in >= 0 && in < base_; }

  const Batch* get_batch(Instance in) const {
    CI_CHECK_MSG(!is_trimmed(in), "read of a trimmed log body");
    if (!is_learned(in)) return nullptr;
    return &*slot(in);
  }

  // First command of the instance's value — the whole value in the
  // one-command-per-instance regime (single-command protocols and tests
  // read through this).
  const Command* get(Instance in) const {
    const Batch* b = get_batch(in);
    return b == nullptr ? nullptr : &b->front();
  }

  // First instance with no learned value; everything below is decided.
  Instance first_gap() const { return first_gap_; }

  // One past the highest learned instance.
  Instance end() const { return base_ + static_cast<Instance>(entries_.size()); }

  // Invokes f(instance, batch) for every newly contiguous decided instance
  // past the execution cursor, in order, advancing the cursor. This is
  // where state machine application happens.
  template <typename F>
  void drain_instances(F&& f) {
    while (executed_ < first_gap_) {
      const Instance in = executed_++;
      f(in, *slot(in));
    }
  }

  // Per-command form of drain_instances: batched instances fan out in
  // batch order.
  template <typename F>
  void drain(F&& f) {
    drain_instances([&](Instance in, const Batch& b) {
      for (const Command& cmd : b) f(in, cmd);
    });
  }

  Instance executed_prefix() const { return executed_; }

  // Drops the bodies of instances below min(floor, executed_prefix()),
  // less the kept tail. `floor` must be a prefix every replica of the
  // group has applied (Heartbeat::trim_floor): then no replica will ever
  // ask for a body below it — catch-up starts at the asker's own first
  // gap — and this replica applied it too. Idempotent; never grows.
  void trim(Instance floor) {
    const Instance to = std::min(floor, executed_) - kKeptTail;
    while (base_ < to) {
      entries_.pop_front();
      base_++;
    }
  }

  // Instances whose slot the log still holds: [trimmed point, end()).
  std::size_t retained() const { return entries_.size(); }

 private:
  const std::optional<Batch>& slot(Instance in) const {
    return entries_[static_cast<std::size_t>(in - base_)];
  }

  std::deque<std::optional<Batch>> entries_;  // entries_[i] is instance base_ + i
  Instance base_ = 0;                         // first instance whose slot is held
  Instance first_gap_ = 0;
  Instance executed_ = 0;
};

// Leader-side record of how far each replica has applied, fed by the
// applied prefix every follower reports on its heartbeat answer
// (LeaseGrant::applied). Its minimum, the leader's own prefix included, is
// the trim floor the leader's heartbeats carry. A replica that never
// reported, or went silent, pins the floor where it last stood — so a
// lagging replica's catch-up never asks for a dropped body. Reports only
// ever rise: each is a lower bound on what that replica applied, true
// under any leader, so a new leader may keep what an old one heard.
class AppliedFrontier {
 public:
  void report(NodeId replica, Instance applied) {
    const auto r = static_cast<std::size_t>(replica);
    if (r >= applied_.size()) applied_.resize(r + 1, 0);
    applied_[r] = std::max(applied_[r], applied);
  }

  // min over replicas [0, num_replicas): `self` counts with `own`.
  Instance floor(std::int32_t num_replicas, NodeId self, Instance own) const {
    Instance f = own;
    for (NodeId r = 0; r < num_replicas; ++r) {
      if (r == self) continue;
      const auto i = static_cast<std::size_t>(r);
      f = std::min(f, i < applied_.size() ? applied_[i] : 0);
    }
    return f;
  }

 private:
  std::vector<Instance> applied_;
};

}  // namespace ci::consensus
