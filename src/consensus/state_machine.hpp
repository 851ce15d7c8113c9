// The application state machine replicated by the agreement protocols, and
// the exactly-once executor every replica runs over its log.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "consensus/types.hpp"

namespace ci::consensus {

// Deterministic state machine. apply() returns the operation result (the
// value read, for kRead; implementations choose what writes return).
//
// Transaction participation (cross-shard 2PC, DESIGN.md §1d): the txn hooks
// let a replicated group serve as one participant of a transaction that
// spans groups. All hooks execute from the replicated log, so every replica
// of the group walks the same lock/stage/apply sequence deterministically:
//   * txn_prepare — called once per (txn, key) write: lock the key and
//     stage the value, returning the participant's vote (1 = yes, 0 = no;
//     a key locked by ANOTHER live transaction must vote no — voting is the
//     only conflict resolution, there is no waiting inside a deterministic
//     log). A no vote must leave nothing locked or staged for that command.
//   * txn_commit — apply every staged write of the txn, release its locks.
//   * txn_abort — discard staged writes, release locks.
//   * txn_decide — home-group bookkeeping: record the coordinator's
//     replicated decision (the durable commit point of the 2PC).
// The defaults vote yes and do nothing, so state machines that never see
// transactions are unaffected.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual std::uint64_t apply(const Command& cmd) = 0;

  // Relaxed local read (§7.5): a replica's current value for `key` without
  // a protocol round trip. Services without a keyed read return 0.
  virtual std::uint64_t read(std::uint64_t key) const {
    (void)key;
    return 0;
  }

  // Per-key write version, bumped on EVERY applied write of `key` (equal
  // values included). Snapshot read-only transactions bracket their value
  // reads with version reads: unchanged versions prove the values formed
  // one consistent cut (no ABA — version moves even when the value does
  // not). Services without versions return 0, which makes the snapshot
  // check vacuous (documented: the cut degrades to independent reads).
  virtual std::uint64_t versioned_read(std::uint64_t key) const {
    (void)key;
    return 0;
  }

  virtual std::uint64_t txn_prepare(const Command& cmd) {
    (void)cmd;
    return 1;
  }
  virtual std::uint64_t txn_commit(TxnId txn) {
    (void)txn;
    return 1;
  }
  virtual std::uint64_t txn_abort(TxnId txn) {
    (void)txn;
    return 1;
  }
  virtual std::uint64_t txn_decide(TxnId txn, bool commit) {
    (void)txn;
    return commit ? 1 : 0;
  }

  // The dispatcher the Executor drives: routes transaction ops to the hooks
  // above and everything else to apply().
  std::uint64_t execute(const Command& cmd) {
    switch (cmd.op) {
      case Op::kTxnPrepare:
        return txn_prepare(cmd);
      case Op::kTxnCommit:
        return txn_commit(cmd.txn);
      case Op::kTxnAbort:
        return txn_abort(cmd.txn);
      case Op::kTxnDecide:
        return txn_decide(cmd.txn, cmd.value != 0);
      case Op::kTxnPrepareDecide: {
        // The home group's anchor: prepare + decide + final in ONE log
        // entry, composed from the hooks above so every StateMachine gets
        // it for free. reserved[0] carries the other participants' combined
        // vote; the anchor key only locks when the txn can still commit (an
        // already-doomed txn must leave nothing locked or staged here).
        const bool others_yes = cmd.reserved[0] != 0;
        const bool commit = others_yes && txn_prepare(cmd) != 0;
        txn_decide(cmd.txn, commit);
        if (commit) {
          txn_commit(cmd.txn);
        } else {
          txn_abort(cmd.txn);
        }
        return commit ? 1 : 0;
      }
      case Op::kReadVersioned:
        return versioned_read(cmd.key);
      default:
        return apply(cmd);
    }
  }
};

// Discards writes, reads return zero. Used by benches where only agreement
// cost matters (the paper's requests carry no payload, §7.1).
class NullStateMachine final : public StateMachine {
 public:
  std::uint64_t apply(const Command&) override { return 0; }
};

// A replicated key/value map: writes store, reads (and writes) return the
// previous value. Queryable locally for joint-deployment local reads (§7.5).
//
// Transactions: prepare locks the key and stages the write (vote no when
// another live transaction holds the lock), commit applies staged writes
// and releases, abort releases without applying. Locks isolate transactions
// from EACH OTHER only; plain kWrite commands are linearized by the log
// independently and do not consult the lock table (relaxed reads likewise).
class MapStateMachine final : public StateMachine {
 public:
  std::uint64_t apply(const Command& cmd) override {
    switch (cmd.op) {
      case Op::kWrite: {
        auto [it, inserted] = map_.try_emplace(cmd.key, cmd.value);
        const std::uint64_t old = inserted ? 0 : it->second;
        it->second = cmd.value;
        ++versions_[cmd.key];
        return old;
      }
      case Op::kRead:
        return read(cmd.key);
      case Op::kNoop:
        return 0;
      default:
        return 0;  // txn ops never reach apply (execute() routes them)
    }
  }

  std::uint64_t read(std::uint64_t key) const override {
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second;
  }

  std::uint64_t versioned_read(std::uint64_t key) const override {
    auto it = versions_.find(key);
    return it == versions_.end() ? 0 : it->second;
  }

  std::uint64_t txn_prepare(const Command& cmd) override {
    auto [it, inserted] = locks_.try_emplace(cmd.key, cmd.txn);
    if (!inserted && it->second != cmd.txn) return 0;  // locked by another txn
    staged_[cmd.txn].emplace_back(cmd.key, cmd.value);
    return 1;
  }

  std::uint64_t txn_commit(TxnId txn) override {
    decisions_.erase(txn);  // the final reached the home group: record done
    auto it = staged_.find(txn);
    if (it == staged_.end()) return 1;  // already finished (duplicate decision)
    for (const auto& [key, value] : it->second) {
      map_[key] = value;
      ++versions_[key];
      release_lock(txn, key);
    }
    staged_.erase(it);
    return 1;
  }

  std::uint64_t txn_abort(TxnId txn) override {
    decisions_.erase(txn);
    auto it = staged_.find(txn);
    if (it == staged_.end()) return 1;
    for (const auto& [key, value] : it->second) release_lock(txn, key);
    staged_.erase(it);
    return 1;
  }

  std::uint64_t txn_decide(TxnId txn, bool commit) override {
    decisions_[txn] = commit ? 1 : 0;
    return commit ? 1 : 0;
  }

  std::size_t size() const { return map_.size(); }

  // Test introspection: transactions holding locks / staged writes here.
  std::size_t locked_keys() const { return locks_.size(); }
  bool has_txn_state(TxnId txn) const { return staged_.count(txn) != 0; }
  // -1 = no decision recorded (this replica is not the txn's home group, or
  // the decide has not executed here yet).
  int decision(TxnId txn) const {
    auto it = decisions_.find(txn);
    return it == decisions_.end() ? -1 : it->second;
  }

 private:
  void release_lock(TxnId txn, std::uint64_t key) {
    auto lk = locks_.find(key);
    if (lk != locks_.end() && lk->second == txn) locks_.erase(lk);
  }

  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  // Per-key write counter backing versioned_read (bumped alongside every
  // map_ write, so replicas agree on versions deterministically).
  std::unordered_map<std::uint64_t, std::uint64_t> versions_;
  std::unordered_map<std::uint64_t, TxnId> locks_;  // key -> holding txn
  std::unordered_map<TxnId, std::vector<std::pair<std::uint64_t, std::uint64_t>>> staged_;
  // Home-group decision record, covering the decide->apply window; the
  // final command (txn_commit/txn_abort always reaches the home group —
  // it is a participant by construction) prunes it, so live transactions
  // bound its size and a reused TxnId (the 20-bit counter wraps after ~1M
  // txns per session) cannot meet a stale record.
  std::unordered_map<TxnId, std::uint8_t> decisions_;
};

// Applies log entries exactly once per (client, seq): a command can occupy
// two instances after a client retry straddles a leader change, and the
// duplicate must not re-execute. A pipelined client's retry can also put an
// OLDER command into the log after newer ones, and that one must still
// apply. So each client keeps a window of its newest kWindow seqs with their
// results: a seq in the window applies if it has not, and a true duplicate
// answers with its original result. A seq below the window is a duplicate:
// clients submit seq s only once every seq up to s - kWindow has its reply
// (client::AsyncClientEngine::kSeqWindow), so such a seq was applied before
// any seq that could have pushed it out.
class Executor {
 public:
  static constexpr std::int32_t kWindow = 2 * kMaxCommandsPerBatch;

  explicit Executor(StateMachine* sm) : sm_(sm) {}

  struct Applied {
    bool duplicate = false;
    std::uint64_t result = 0;
  };

  Applied apply(const Command& cmd) {
    Applied out;
    if (cmd.is_noop()) return out;
    if (cmd.client == kNoNode) {
      if (sm_ != nullptr) out.result = sm_->execute(cmd);
      return out;
    }
    Window& w = windows_[cmd.client];
    Slot& slot = w.slots[cmd.seq % kWindow];
    if (static_cast<std::uint64_t>(cmd.seq) + kWindow <= w.high) {
      out.duplicate = true;  // below the window: applied long ago, result gone
      return out;
    }
    if (slot.used && slot.seq == cmd.seq) {
      out.duplicate = true;
      out.result = slot.result;
      return out;
    }
    if (sm_ != nullptr) out.result = sm_->execute(cmd);
    slot = Slot{true, cmd.seq, out.result};
    w.high = std::max<std::uint64_t>(w.high, cmd.seq);
    return out;
  }

  // True when `cmd` was applied and its result is still in the window.
  bool applied(const Command& cmd, std::uint64_t* result) const {
    const auto it = windows_.find(cmd.client);
    if (it == windows_.end()) return false;
    const Slot& slot = it->second.slots[cmd.seq % kWindow];
    if (!slot.used || slot.seq != cmd.seq) return false;
    *result = slot.result;
    return true;
  }

 private:
  struct Slot {
    bool used = false;
    std::uint32_t seq = 0;
    std::uint64_t result = 0;
  };
  // slots[s % kWindow] holds seq s once applied, for s in (high - kWindow, high].
  struct Window {
    std::uint64_t high = 0;  // highest applied seq
    std::array<Slot, kWindow> slots{};
  };

  StateMachine* sm_;
  std::unordered_map<NodeId, Window> windows_;
};

}  // namespace ci::consensus
