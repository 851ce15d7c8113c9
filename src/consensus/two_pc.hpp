// Two-phase commit in its agreement form, as used by Barrelfish and
// described in paper §2.2.
//
// The coordinator (a fixed replica, core 0 in the paper) drives one
// prepare/ack + commit/commit-ack exchange per client command. It needs
// responses from *all* replicas in both phases — the protocol is blocking:
// one slow replica halts every in-flight round (§2.2, §7.6). There is no
// coordinator takeover, faithfully to the baseline.
//
// Rounds for different instances pipeline up to EngineConfig::pipeline_window
// (agreement on a log, as in Barrelfish's replicated capability state);
// locking is per instance, and the joint-deployment read optimization
// (§7.5) asks a replica whether any instance is between the two phases via
// has_prepared_uncommitted().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "consensus/engine.hpp"
#include "consensus/log.hpp"
#include "consensus/state_machine.hpp"

namespace ci::consensus {

struct TwoPcConfig {
  EngineConfig base;
  NodeId coordinator = 0;
};

// The two phases every 2PC round walks: fan out prepares, collect the
// votes, fan out the decision, collect the acks. Shared by the single-group
// engine below (participants = replicas) and the cross-group transaction
// coordinator built on top of replicated groups (participants = groups;
// client/txn.hpp) — the §2.2 layering reuses the round structure one level
// up.
enum class TwoPcPhase : std::uint8_t { kPreparing, kCommitting };

class TwoPcEngine final : public Engine {
 public:
  explicit TwoPcEngine(const TwoPcConfig& cfg);

  void start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;
  void tick(Context& ctx) override;
  NodeId believed_leader() const override { return cfg_.coordinator; }

  // True while some instance on this replica is locked between prepare and
  // commit — the window during which joint-mode local reads must stall.
  bool has_prepared_uncommitted() const { return !prepared_.empty(); }

  const ReplicatedLog& log() const { return log_; }
  std::uint64_t committed_rounds() const { return committed_rounds_; }
  // Stall diagnostics: coordinator rounds in flight and commands queued
  // behind the pipeline window; instances this replica holds prepared.
  std::size_t rounds_in_flight() const { return rounds_.size(); }
  std::size_t queued() const { return pending_.size(); }
  std::size_t prepared_count() const { return prepared_.size(); }

 private:
  using Phase = TwoPcPhase;

  struct Round {
    Command cmd;
    Phase phase = Phase::kPreparing;
    std::uint64_t ack_mask = 0;  // replicas that ack'd the current phase
    Nanos last_send = 0;
    bool has_client = false;
  };

  bool is_coordinator() const { return cfg_.base.self == cfg_.coordinator; }
  void pump_rounds(Context& ctx);
  void begin_round(Context& ctx, Instance in, const Command& cmd, bool has_client);
  void broadcast_commit(Context& ctx, Instance in, Round& r);
  void handle_prepare(Context& ctx, const Message& m);
  void handle_commit(Context& ctx, const Message& m);
  void on_executed(Context& ctx, Instance in, const Command& cmd);
  void finish_round(Context& ctx, Instance in, const Round& r);
  void reply(Context& ctx, Instance in, const Command& cmd, std::uint64_t result);

  std::uint64_t all_replicas_mask() const { return (1ULL << cfg_.base.num_replicas) - 1; }

  TwoPcConfig cfg_;
  ReplicatedLog log_;
  Executor executor_;

  // Coordinator state.
  std::deque<Command> pending_;
  // (client, seq) of every client command queued or in a round. A client
  // that times out sends the command it waits on again, to the next
  // replica, which forwards it here; run as a new round, every copy would
  // queue behind the others, so under load each retry lengthened the wait
  // that caused it until the queue outgrew the drain. Copies of a command
  // still in progress are dropped (its reply is coming); copies of one
  // already executed are answered from the executor.
  std::unordered_set<std::uint64_t> advocating_;
  std::map<Instance, Round> rounds_;  // in-flight, ordered by instance
  Instance next_instance_ = 0;
  std::uint64_t committed_rounds_ = 0;

  // Participant state: instances locked by a prepare, awaiting commit.
  std::unordered_map<Instance, Command> prepared_;

  // Replies owed to clients, by instance (coordinator only).
  std::unordered_map<Instance, Command> advocated_;
  std::unordered_map<Instance, std::uint64_t> results_;
};

}  // namespace ci::consensus
