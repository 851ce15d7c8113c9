// The asynchronous replicated-service client engine: the bridge between
// application threads and the event-driven engine world, and the layer the
// public client API (service_client.hpp) is built on.
//
// One AsyncClientEngine occupies one node of one consensus group. The core
// operation is submit(): queue a command, get a SubmitHandle completion
// token back immediately. Blocking is a wrapper — execute() is
// submit().wait(), flush() waits for everything in flight. Retarget/retry
// behavior mirrors ClientEngine (§7.6): on timeout the request goes to the
// next replica with the leader-suspect flag set.
//
// Backend bridging: under the real-thread runtime the hosting node's thread
// drives the engine and waiters block on a condition variable. Under the
// simulator nothing runs until somebody advances virtual time, so waiters
// call the configured pump() in a loop (with the engine unlocked) until the
// completion lands; a wait for one command's reply hands the pump its
// handle so virtual time stops at the reply (DESIGN.md §1i). Every submit
// rings the kick() doorbell (once until the hosting node's next tick) so the
// node sends the command now rather than at its next periodic tick: on sim
// the kick schedules the tick at the current virtual time, on net it wakes
// the node's poll() (DESIGN.md §1h). rt's node loop ticks continuously and
// needs no bell.
//
// Pipelining: up to kMaxOutstanding commands ride concurrently (submit
// blocks for ROOM, never for commits); that backlog is what lets a batching
// leader (EngineConfig::batch) fill multi-command instances. submit_run()
// additionally marks a run of commands to travel to the replica in shared
// kClientCmdBatch frames (one frame per kMaxClientBatchCommands chunk) —
// the cross-shard transaction driver uses it for its per-group fan-out.
// Retries always degrade to per-command legacy frames, so a lost batch
// frame costs nothing but the amortization.
//
// Allocation discipline: the pipeline is bounded, so ALL per-command state
// lives in fixed arrays — a ring for the not-yet-sent backlog, a slot array
// for the awaiting-reply window — and Completion objects are recycled
// through a spare list once both the engine and the application have
// dropped them. After warmup a steady-state submit/complete cycle performs
// no heap allocation (pinned by the alloc-guard suite), which is what lets
// the open-loop workload engine (harness/workload.hpp) drive tens of
// thousands of logical sessions without the allocator in the loop. The
// same holds for queue_wait(): each command's wait from enqueue to first
// send (stage 1 of its latency, client queue/coalesce) is summed in place.
#pragma once

#include <algorithm>
#include <array>
#include <bitset>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "consensus/engine.hpp"

namespace ci::client {

using consensus::Command;
using consensus::Context;
using consensus::Engine;
using consensus::Message;
using consensus::MsgType;
using consensus::NodeId;
using consensus::Op;

class AsyncClientEngine;
class SubmitHandle;

struct AsyncClientConfig {
  consensus::EngineConfig base;
  NodeId initial_target = 0;
  Nanos request_timeout = 10 * kMillisecond;

  // Coalescing window: N > 1 lets each tick gather up to N consecutive
  // plain queued commands (those not already part of a submit_run() run)
  // into one kClientCmdBatch frame. N = 1 sends every command as a legacy
  // kClientRequest — bit-identical to the uncoalesced wire. Bounded by
  // kMaxClientBatchCommands; retries always degrade to legacy frames.
  std::int32_t coalesce = 1;

  // Simulator bridge: when set, blocking waits advance virtual time by
  // calling this instead of sleeping on the condition variable. A wait for
  // pipeline room passes null and the pump runs one slice; a wait for one
  // command's reply passes its handle and the pump stops once that reply
  // has landed, at the reply's virtual time.
  std::function<void(const SubmitHandle* awaited)> pump;

  // Doorbell: when set, every submit / submit_run calls this (engine
  // unlocked) unless a ring is already pending, i.e. none since the hosting
  // node's last tick. It must make the node tick now instead of at its next
  // periodic tick: sim schedules the tick at the current virtual time
  // (SimNet::kick), net ends the node's poll() (NetNode::wake).
  std::function<void()> kick;

  // The hosting node's clock as the application thread reads it, stamped on
  // each command at enqueue for queue_wait(); wall time when unset. Called
  // with the engine unlocked.
  std::function<Nanos()> clock;
};

// Stage 1 of a command's latency: its wait in the client from enqueue to
// first send, over every command launched so far.
struct QueueWait {
  std::uint64_t count = 0;
  Nanos total_ns = 0;
  Nanos max_ns = 0;
};

// Completion token for one submitted command. Default-constructed handles
// are invalid; valid ones stay usable until the engine is destroyed (the
// engine, not the handle, owns the protocol state — dropping a handle
// simply discards the result). Handles may be polled or waited from any
// thread except the engine's hosting node thread.
class SubmitHandle {
 public:
  SubmitHandle() = default;

  bool valid() const { return state_ != nullptr; }
  // Non-blocking: has the command committed (reply received)?
  bool done() const;
  // Blocks (or pumps, under sim) until the command commits; returns the
  // operation result (previous value for writes, value for reads, the vote
  // for transaction prepares).
  std::uint64_t wait();
  // The replying leader's cache epoch (ClientReply::lease_epoch), 0 when
  // the reply predates leases or the command has not completed. Valid only
  // after done()/wait(); the Session near-cache keys entries on it.
  std::uint32_t lease_epoch() const;
  // When the reply was processed, in the hosting node's clock (virtual
  // nanoseconds under sim, wall nanoseconds under rt); 0 until done(). The
  // workload engine measures honest open-loop latency against this instead
  // of its own polling time, so reaping late never flatters the tail.
  Nanos completed_at() const;

 private:
  friend class AsyncClientEngine;

  struct Completion {
    bool done = false;
    std::uint64_t result = 0;
    std::uint32_t lease_epoch = 0;
    Nanos completed_at = 0;
  };

  SubmitHandle(AsyncClientEngine* engine, std::shared_ptr<Completion> state)
      : engine_(engine), state_(std::move(state)) {}

  AsyncClientEngine* engine_ = nullptr;
  std::shared_ptr<Completion> state_;
};

class AsyncClientEngine final : public Engine {
 public:
  // Pipeline depth bound: one batching leader can absorb at most this many
  // commands into a single instance anyway.
  static constexpr std::int32_t kMaxOutstanding = consensus::kMaxCommandsPerBatch;
  // Seq window: seq s is submitted only once every seq up to s - kSeqWindow
  // has its reply, so a command that lags (a retry stuck behind a slow
  // leader) holds back new submits instead of falling out of the replicas'
  // dedup window, which keeps exactly this many seqs per client
  // (consensus::Executor). Without it an older command landing in the log
  // after far newer ones would be dropped as a duplicate yet acknowledged.
  static constexpr std::int32_t kSeqWindow = consensus::Executor::kWindow;

  explicit AsyncClientEngine(const AsyncClientConfig& cfg)
      : cfg_(cfg), target_(cfg.initial_target) {
    spare_.reserve(2 * static_cast<std::size_t>(kMaxOutstanding));
  }

  // ---- Application side (any thread but the hosting node's) ----

  // Queue one command; returns its completion token. Blocks only when the
  // pipeline is full. The key/value form covers plain operations; the
  // Command form carries transaction ops (op + txn stamped by the caller;
  // client and seq are stamped here).
  SubmitHandle submit(Op op, std::uint64_t key, std::uint64_t value) {
    Command cmd;
    cmd.op = op;
    cmd.key = key;
    cmd.value = value;
    return submit(cmd);
  }

  SubmitHandle submit(const Command& proto) {
    std::unique_lock<std::mutex> lock(mu_);
    const Nanos now = await_room_locked(lock, 1);
    SubmitHandle handle = enqueue_locked(proto, /*run=*/0, now);
    ring_doorbell(lock);
    return handle;
  }

  // Queue a run of commands that should share kClientCmdBatch frames on
  // their first send (chunked to kMaxClientBatchCommands per frame). The
  // run must fit the pipeline whole.
  std::vector<SubmitHandle> submit_run(const std::vector<Command>& protos) {
    CI_CHECK(static_cast<std::int32_t>(protos.size()) <= kMaxOutstanding);
    std::vector<SubmitHandle> handles;
    handles.reserve(protos.size());
    std::unique_lock<std::mutex> lock(mu_);
    const Nanos now = await_room_locked(lock, static_cast<std::int32_t>(protos.size()));
    const std::uint32_t run = ++next_run_;
    for (const Command& proto : protos) handles.push_back(enqueue_locked(proto, run, now));
    ring_doorbell(lock);
    return handles;
  }

  // Blocking one-shot: submit and wait.
  std::uint64_t execute(Op op, std::uint64_t key, std::uint64_t value) {
    return submit(op, key, value).wait();
  }

  // Blocks until every command submitted so far committed.
  void flush() {
    std::unique_lock<std::mutex> lock(mu_);
    wait_locked(lock, [this] { return in_flight_count() == 0; });
  }

  // Room left in the pipeline right now (how many submits would not block).
  std::int32_t available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return room_locked();
  }

  // The newest nonzero ClientReply::lease_epoch seen from this group's
  // leader — the group's current cache epoch as far as this engine knows.
  // 0 until a lease-epoch-stamped reply arrives.
  std::uint32_t latest_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latest_epoch_;
  }

  // How many submits rang the kick() doorbell (always 0 without one, i.e.
  // on rt). Submits made while a ring is pending share it.
  std::uint64_t doorbells() const {
    std::lock_guard<std::mutex> lock(mu_);
    return doorbells_;
  }

  // Enqueue-to-first-send wait of every command launched so far.
  QueueWait queue_wait() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_wait_;
  }

  // An already-completed handle carrying `result` — what a near-cache hit
  // hands back so cached and replicated reads share one call shape.
  SubmitHandle completed_handle(std::uint64_t result, std::uint32_t epoch) {
    auto state = std::make_shared<SubmitHandle::Completion>();
    state->done = true;
    state->result = result;
    state->lease_epoch = epoch;
    return SubmitHandle(this, std::move(state));
  }

  // ---- Engine side (hosting node thread) ----

  void on_message(Context& ctx, const Message& m) override {
    if (m.type != MsgType::kClientReply) return;
    std::lock_guard<std::mutex> lock(mu_);
    const std::int32_t slot = find_sent_locked(m.u.client_reply.seq);
    if (slot < 0) return;
    if (m.u.client_reply.leader_hint != consensus::kNoNode) {
      target_ = m.u.client_reply.leader_hint;
    }
    Sent& f = sent_[static_cast<std::size_t>(slot)];
    f.completion->done = true;
    f.completion->result = m.u.client_reply.result;
    f.completion->lease_epoch = m.u.client_reply.lease_epoch;
    f.completion->completed_at = ctx.now();
    if (m.u.client_reply.lease_epoch != 0) {
      latest_epoch_ = m.u.client_reply.lease_epoch;
    }
    release_sent_locked(slot);
    done_cv_.notify_all();
  }

  void tick(Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    const Nanos now = ctx.now();
    doorbell_rung_ = false;  // this tick launches whatever the bell announced
    // Launch queued commands from the hosting node's thread. Members of one
    // run travel together in kClientCmdBatch frames; everything else goes
    // as a legacy kClientRequest.
    while (queued_count_ > 0) {
      if (queued_front().run != 0) {
        launch_chunk_locked(ctx, now, /*run=*/queued_front().run,
                            consensus::kMaxClientBatchCommands);
        continue;
      }
      if (cfg_.coalesce > 1) {
        launch_chunk_locked(
            ctx, now, /*run=*/0,
            std::min(cfg_.coalesce, consensus::kMaxClientBatchCommands));
        continue;
      }
      Pending p = pop_queued();
      send_locked(ctx, p.cmd, /*suspect=*/false);
      note_launch_locked(p, now);
      store_sent_locked(p.cmd, std::move(p.completion), now);
    }
    // Retry stragglers individually, in submission (seq) order; rotate the
    // target at most once per tick so several outstanding commands cannot
    // spin it around the ring.
    std::array<std::int32_t, kMaxOutstanding> overdue;
    std::int32_t n = 0;
    for (std::int32_t i = 0; i < kMaxOutstanding; ++i) {
      Sent& f = sent_[static_cast<std::size_t>(i)];
      if (!f.used || now - f.last_sent < cfg_.request_timeout) continue;
      // Insertion sort by seq: the window is 64 slots and usually nearly
      // ordered, so this stays cheap and allocation-free.
      std::int32_t j = n++;
      while (j > 0 &&
             sent_[static_cast<std::size_t>(overdue[static_cast<std::size_t>(j - 1)])]
                     .cmd.seq > f.cmd.seq) {
        overdue[static_cast<std::size_t>(j)] = overdue[static_cast<std::size_t>(j - 1)];
        --j;
      }
      overdue[static_cast<std::size_t>(j)] = i;
    }
    bool rotated = false;
    for (std::int32_t k = 0; k < n; ++k) {
      Sent& f = sent_[static_cast<std::size_t>(overdue[static_cast<std::size_t>(k)])];
      if (!rotated) {
        target_ = (target_ + 1) % cfg_.base.num_replicas;
        rotated = true;
      }
      f.last_sent = now;
      send_locked(ctx, f.cmd, /*suspect=*/true);
    }
  }

  NodeId believed_leader() const override { return target_; }

 private:
  friend class SubmitHandle;

  struct Pending {
    Command cmd;
    std::shared_ptr<SubmitHandle::Completion> completion;
    std::uint32_t run = 0;  // nonzero: batch with same-run neighbors
    Nanos enqueued_at = 0;  // cfg_.clock at submit
  };

  struct Sent {
    bool used = false;
    Command cmd;
    std::shared_ptr<SubmitHandle::Completion> completion;
    Nanos last_sent = 0;
  };

  std::int32_t in_flight_count() const { return queued_count_ + sent_count_; }

  // Room for new commands: a free pipeline slot, and a seq no further than
  // kSeqWindow - 1 past the oldest command still awaiting its reply.
  std::int32_t room_locked() const {
    const auto window_left =
        static_cast<std::int32_t>(oldest_unacked_ + kSeqWindow - (next_seq_ + 1));
    return std::min(kMaxOutstanding - in_flight_count(), window_left);
  }

  // ---- queued ring (capacity kMaxOutstanding; in_flight_count() <=
  // kMaxOutstanding is the submit-side invariant, so it never overflows) ----

  Pending& queued_front() { return queued_[static_cast<std::size_t>(queued_head_)]; }

  Pending pop_queued() {
    Pending p = std::move(queued_[static_cast<std::size_t>(queued_head_)]);
    queued_head_ = (queued_head_ + 1) % kMaxOutstanding;
    --queued_count_;
    return p;
  }

  void push_queued(Pending p) {
    CI_CHECK(queued_count_ < kMaxOutstanding);
    const std::int32_t tail = (queued_head_ + queued_count_) % kMaxOutstanding;
    queued_[static_cast<std::size_t>(tail)] = std::move(p);
    ++queued_count_;
  }

  // ---- sent slots ----

  std::int32_t find_sent_locked(std::uint32_t seq) const {
    for (std::int32_t i = 0; i < kMaxOutstanding; ++i) {
      const Sent& f = sent_[static_cast<std::size_t>(i)];
      if (f.used && f.cmd.seq == seq) return i;
    }
    return -1;
  }

  void store_sent_locked(const Command& cmd,
                         std::shared_ptr<SubmitHandle::Completion> completion,
                         Nanos now) {
    for (std::int32_t i = 0; i < kMaxOutstanding; ++i) {
      Sent& f = sent_[static_cast<std::size_t>(i)];
      if (f.used) continue;
      f.used = true;
      f.cmd = cmd;
      f.completion = std::move(completion);
      f.last_sent = now;
      ++sent_count_;
      return;
    }
    CI_CHECK_MSG(false, "sent window overflow (pipeline invariant broken)");
  }

  void release_sent_locked(std::int32_t slot) {
    Sent& f = sent_[static_cast<std::size_t>(slot)];
    f.used = false;
    --sent_count_;
    unacked_.reset(f.cmd.seq % kSeqWindow);
    while (oldest_unacked_ <= next_seq_ && !unacked_.test(oldest_unacked_ % kSeqWindow)) {
      ++oldest_unacked_;
    }
    // Recycle the completion once the application drops its handle: the
    // spare list is scanned at enqueue time for an entry nobody else
    // references. Entries still held by the app stay parked here (they
    // become reusable when the handle is dropped), so the list's size is
    // bounded by the number of handles alive at once.
    spare_.push_back(std::move(f.completion));
  }

  std::shared_ptr<SubmitHandle::Completion> acquire_completion_locked() {
    for (std::size_t i = spare_.size(); i > 0; --i) {
      auto& c = spare_[i - 1];
      if (c.use_count() != 1) continue;  // an app handle still reads it
      auto out = std::move(c);
      spare_[i - 1] = std::move(spare_.back());
      spare_.pop_back();
      *out = SubmitHandle::Completion{};
      return out;
    }
    return std::make_shared<SubmitHandle::Completion>();
  }

  SubmitHandle enqueue_locked(const Command& proto, std::uint32_t run, Nanos now) {
    Pending p;
    p.cmd = proto;
    p.cmd.client = cfg_.base.self;
    p.cmd.seq = ++next_seq_;
    unacked_.set(p.cmd.seq % kSeqWindow);
    p.completion = acquire_completion_locked();
    p.run = run;
    p.enqueued_at = now;
    SubmitHandle handle(this, p.completion);
    push_queued(std::move(p));
    return handle;
  }

  // The front of the queue starts a chunk: peel up to `window` consecutive
  // commands with the same run id (run 0 = plain commands under coalescing)
  // and ship them in one kClientCmdBatch frame. A chunk of one keeps the
  // legacy kClientRequest — the wire never pays the batch header for a
  // single command.
  void launch_chunk_locked(Context& ctx, Nanos now, std::uint32_t run,
                           std::int32_t window) {
    std::array<Pending, consensus::kMaxClientBatchCommands> chunk;
    std::int32_t count = 0;
    while (queued_count_ > 0 && queued_front().run == run && count < window) {
      chunk[static_cast<std::size_t>(count++)] = pop_queued();
    }
    if (count == 1) {
      send_locked(ctx, chunk[0].cmd, /*suspect=*/false);
    } else {
      Message m(MsgType::kClientCmdBatch, consensus::ProtoId::kClient, cfg_.base.self,
                target_);
      Command cmds[consensus::kMaxClientBatchCommands];
      for (std::int32_t i = 0; i < count; ++i) cmds[i] = chunk[static_cast<std::size_t>(i)].cmd;
      m.u.client_cmd_batch.count = count;
      m.u.client_cmd_batch.run.assign(cmds, count);
      ctx.send(target_, m);
    }
    for (std::int32_t i = 0; i < count; ++i) {
      Pending& p = chunk[static_cast<std::size_t>(i)];
      note_launch_locked(p, now);
      store_sent_locked(p.cmd, std::move(p.completion), now);
    }
  }

  template <typename Pred>
  void wait_locked(std::unique_lock<std::mutex>& lock, Pred pred,
                   const SubmitHandle* awaited = nullptr) {
    if (cfg_.pump) {
      while (!pred()) {
        lock.unlock();
        cfg_.pump(awaited);  // advances the simulation; may re-enter on_message/tick
        lock.lock();
      }
    } else {
      done_cv_.wait(lock, pred);
    }
  }

  // The hosting node would only launch the queue at its next periodic
  // tick: ring the doorbell instead, once until a tick runs, so submits
  // made before that tick share its sends. Rung with the engine unlocked:
  // the sim pump holds its own lock while it takes ours.
  void ring_doorbell(std::unique_lock<std::mutex>& lock) {
    if (!cfg_.kick || doorbell_rung_) return;
    doorbell_rung_ = true;
    ++doorbells_;
    lock.unlock();
    cfg_.kick();
  }

  // Waits for room for n commands and returns the enqueue stamp. cfg_.clock
  // runs with the engine unlocked, for the same reason as ring_doorbell (the
  // sim clock takes the pump's lock), so the room is checked again after.
  Nanos await_room_locked(std::unique_lock<std::mutex>& lock, std::int32_t n) {
    const auto room = [this, n] { return room_locked() >= n; };
    wait_locked(lock, room);
    if (!cfg_.clock) return now_nanos();
    lock.unlock();
    const Nanos now = cfg_.clock();
    lock.lock();
    wait_locked(lock, room);
    return now;
  }

  // The queue wait ends at the first send; a hosting clock that reads
  // behind the submit's stamp counts as no wait.
  void note_launch_locked(const Pending& p, Nanos now) {
    const Nanos wait = std::max<Nanos>(0, now - p.enqueued_at);
    ++queue_wait_.count;
    queue_wait_.total_ns += wait;
    queue_wait_.max_ns = std::max(queue_wait_.max_ns, wait);
  }

  void send_locked(Context& ctx, const Command& cmd, bool suspect) {
    Message m(MsgType::kClientRequest, consensus::ProtoId::kClient, cfg_.base.self, target_);
    if (suspect) m.flags = consensus::kFlagLeaderSuspect;
    m.u.client_request.cmd = cmd;
    ctx.send(target_, m);
  }

  AsyncClientConfig cfg_;
  NodeId target_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::uint32_t next_seq_ = 0;
  // Seqs whose reply has not arrived, by seq % kSeqWindow (they all lie in
  // [oldest_unacked_, oldest_unacked_ + kSeqWindow)), and the lowest such
  // seq (next_seq_ + 1 when none is outstanding).
  std::bitset<kSeqWindow> unacked_;
  std::uint32_t oldest_unacked_ = 1;
  std::uint32_t next_run_ = 0;
  // Not yet sent (tick launches them): fixed ring, FIFO.
  std::array<Pending, kMaxOutstanding> queued_;
  std::int32_t queued_head_ = 0;
  std::int32_t queued_count_ = 0;
  // Awaiting a reply: fixed slot array (order-free; retries re-sort by seq).
  std::array<Sent, kMaxOutstanding> sent_;
  std::int32_t sent_count_ = 0;
  // Recycled Completion objects (see release_sent_locked).
  std::vector<std::shared_ptr<SubmitHandle::Completion>> spare_;
  std::uint32_t latest_epoch_ = 0;  // newest nonzero reply epoch
  bool doorbell_rung_ = false;      // kick() called, no tick since
  std::uint64_t doorbells_ = 0;
  QueueWait queue_wait_;
};

inline bool SubmitHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  return state_->done;
}

inline std::uint64_t SubmitHandle::wait() {
  CI_CHECK_MSG(state_ != nullptr, "waiting on an invalid SubmitHandle");
  std::unique_lock<std::mutex> lock(engine_->mu_);
  engine_->wait_locked(lock, [this] { return state_->done; }, this);
  return state_->result;
}

inline std::uint32_t SubmitHandle::lease_epoch() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  return state_->done ? state_->lease_epoch : 0;
}

inline Nanos SubmitHandle::completed_at() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  return state_->done ? state_->completed_at : 0;
}

}  // namespace ci::client
