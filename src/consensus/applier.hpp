// The decided path shared by the log engines (Multi-Paxos, 1Paxos).
//
// Once a log prefix is decided, every replica applies it command by
// command, exactly once per (client, seq); advances the near-cache epoch;
// reports each delivery to the runtime; and the replica that proposed a
// command answers its client. Replies go out once per decided instance:
// all of one client's commands in the instance share one frame —
// kClientReplyBatch for two or more, the legacy kClientReply for one — so
// a batch-64 instance costs the leader one send per client, not 64
// (paper §3: per-message costs at a serial core set the throughput).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "consensus/engine.hpp"
#include "consensus/log.hpp"
#include "consensus/state_machine.hpp"

namespace ci::consensus {

class Applier {
 public:
  explicit Applier(StateMachine* sm) : executor_(sm) {}

  // This node proposed `cmd` and owes its client the reply once it applies.
  void advocate(const Command& cmd) {
    if (cmd.client != kNoNode) advocated_.insert(key(cmd));
  }

  // Counts applied state-mutating commands; stamped into every reply as
  // the near-cache epoch. Deterministic across replicas (a function of the
  // applied log prefix). Starts at 1 — epoch 0 means "not reported". On
  // u32 wrap it skips 0; a client whose cached entry survives a full
  // 4B-write wrap could see a false hit, which at any realistic rate needs
  // a session idle for hours against a saturated group (accepted).
  std::uint32_t write_epoch() const { return write_epoch_; }

  // Applies every newly contiguous decided instance of `log` and sends the
  // replies this node owes, one frame per (client, instance), with
  // `leader_hint` telling clients where to go next.
  void drain(Context& ctx, ReplicatedLog& log, NodeId leader_hint);

 private:
  struct Owed {
    NodeId client = kNoNode;
    ReplyEntry entry;
  };

  static std::uint64_t key(const Command& cmd) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.client)) << 32) | cmd.seq;
  }

  void send_replies(Context& ctx, Instance in, NodeId leader_hint);

  Executor executor_;
  std::unordered_set<std::uint64_t> advocated_;  // (client, seq) keys
  std::uint32_t write_epoch_ = 1;
  // Replies of the instance being drained. Its capacity persists, so the
  // steady state allocates nothing per instance.
  std::vector<Owed> owed_;
};

}  // namespace ci::consensus
