#include "consensus/client.hpp"

#include <algorithm>

#include "common/time.hpp"

namespace ci::consensus {

namespace {

// Latency of a locally-serviced read. ctx.now() is useless here — under the
// simulator virtual time is frozen for the whole callback, so the elapsed
// virtual time is always zero — and recording 0 poisoned the histogram's
// low percentiles. Measure the actual state-machine lookup on the wall
// clock instead, clamped to 1 ns so the sample is never zero.
template <typename Fn>
bool timed_local_read(const Fn& local_read, const Command& cmd, std::uint64_t* result,
                      Nanos* elapsed) {
  const Nanos begin = now_nanos();
  const bool hit = local_read(cmd, result);
  *elapsed = std::max<Nanos>(now_nanos() - begin, 1);
  return hit;
}

}  // namespace

ClientEngine::ClientEngine(const ClientConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.base.seed + static_cast<std::uint64_t>(cfg.base.self) * 104729),
      target_(cfg.initial_target) {}

void ClientEngine::start(Context& ctx) {
  if (cfg_.auto_start) {
    started_ = true;
    next_issue_at_ = ctx.now();
  }
}

Command ClientEngine::make_command() {
  Command cmd;
  cmd.client = cfg_.base.self;
  cmd.seq = current_seq_;
  cmd.op = rng_.next_double() < cfg_.read_fraction ? Op::kRead : Op::kWrite;
  cmd.key = static_cast<std::uint64_t>(cfg_.base.self);
  cmd.value = current_seq_;
  return cmd;
}

void ClientEngine::issue_round(Context& ctx) {
  if (done()) return;
  const Nanos now = ctx.now();
  if (now < next_issue_at_) return;  // think time pending
  // One round = up to `coalesce` commands (bounded by the wire frame's
  // command cap and the remaining request quota), shipped together.
  std::int32_t want = std::min(cfg_.coalesce, kMaxClientBatchCommands);
  if (cfg_.total_requests != 0) {
    const std::uint64_t left = cfg_.total_requests - std::min(
        cfg_.total_requests, issued_.load(std::memory_order_relaxed));
    want = static_cast<std::int32_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(want), left));
  }
  if (want <= 0) return;
  round_cmds_.clear();
  round_done_.clear();
  for (std::int32_t i = 0; i < want; ++i) {
    current_seq_++;
    issued_++;
    Command cmd = make_command();
    if (cmd.op == Op::kRead && cfg_.local_read) {
      std::uint64_t result = 0;
      Nanos elapsed = 0;
      if (timed_local_read(cfg_.local_read, cmd, &result, &elapsed)) {
        local_reads_.fetch_add(1, std::memory_order_relaxed);
        committed_++;
        latency_.record(elapsed);
        if (commit_series_ != nullptr) commit_series_->record(now);
        continue;
      }
    }
    round_cmds_.push_back(cmd);
    round_done_.push_back(false);
  }
  if (round_cmds_.empty()) {
    // Every command was serviced locally; the round never touches the wire.
    next_issue_at_ = now + cfg_.think_time;
    waiting_ = false;
    return;
  }
  round_open_ = static_cast<std::int32_t>(round_cmds_.size());
  first_sent_ = now;
  last_sent_ = now;
  waiting_ = true;
  if (round_open_ == 1) {
    // A window of one stays on the legacy frame (the wire promise: senders
    // never pay the batch header for a single command).
    Message m(MsgType::kClientRequest, ProtoId::kClient, cfg_.base.self, target_);
    m.u.client_request.cmd = round_cmds_[0];
    ctx.send(target_, m);
    return;
  }
  Message m(MsgType::kClientCmdBatch, ProtoId::kClient, cfg_.base.self, target_);
  m.u.client_cmd_batch.count = round_open_;
  m.u.client_cmd_batch.run.assign(round_cmds_.data(), round_open_);
  ctx.send(target_, m);
}

void ClientEngine::on_round_reply(Context& ctx, const Message& m) {
  if (!waiting_) return;  // stale
  const std::uint32_t seq = m.u.client_reply.seq;
  for (std::size_t i = 0; i < round_cmds_.size(); ++i) {
    if (round_cmds_[i].seq != seq || round_done_[i]) continue;
    round_done_[i] = true;
    round_open_--;
    const Nanos now = ctx.now();
    latency_.record(now - first_sent_);
    committed_++;
    if (commit_series_ != nullptr) commit_series_->record(now);
    if (m.u.client_reply.leader_hint != kNoNode) target_ = m.u.client_reply.leader_hint;
    if (round_open_ == 0) {
      waiting_ = false;
      next_issue_at_ = now + cfg_.think_time;
      if (started_ && cfg_.think_time == 0) issue_round(ctx);
    }
    return;
  }
}

void ClientEngine::retry_round(Context& ctx, Nanos now) {
  if (now - last_sent_ < cfg_.request_timeout) return;
  // Degrade to per-command legacy frames on the next replica: a lost batch
  // frame costs the amortization, never correctness (per-command (client,
  // seq) dedup absorbs duplicates exactly like the single-request retry).
  target_ = (target_ + 1) % cfg_.base.num_replicas;
  retries_++;
  last_sent_ = now;
  for (std::size_t i = 0; i < round_cmds_.size(); ++i) {
    if (round_done_[i]) continue;
    Message m(MsgType::kClientRequest, ProtoId::kClient, cfg_.base.self, target_);
    m.flags = kFlagLeaderSuspect;
    m.u.client_request.cmd = round_cmds_[i];
    ctx.send(target_, m);
  }
}

void ClientEngine::issue_next(Context& ctx) {
  // Locally-serviceable reads complete immediately; keep issuing (bounded,
  // so one call cannot consume the whole quota in zero simulated time)
  // until a request actually reaches the network.
  for (int burst = 0; burst < kMaxLocalBurst; ++burst) {
    if (done()) return;
    const Nanos now = ctx.now();
    if (now < next_issue_at_) return;  // think time pending
    current_seq_++;
    issued_++;
    current_cmd_ = make_command();

    if (current_cmd_.op == Op::kRead && cfg_.local_read) {
      std::uint64_t result = 0;
      Nanos elapsed = 0;
      if (timed_local_read(cfg_.local_read, current_cmd_, &result, &elapsed)) {
        // Serviced from the co-located replica without touching the network.
        local_reads_.fetch_add(1, std::memory_order_relaxed);
        committed_++;
        latency_.record(elapsed);
        if (commit_series_ != nullptr) commit_series_->record(now);
        next_issue_at_ = now + cfg_.think_time;
        waiting_ = false;
        if (cfg_.think_time > 0) return;
        continue;
      }
    }

    first_sent_ = now;
    last_sent_ = now;
    waiting_ = true;
    Message m(MsgType::kClientRequest, ProtoId::kClient, cfg_.base.self, target_);
    m.u.client_request.cmd = current_cmd_;
    ctx.send(target_, m);
    return;
  }
}

void ClientEngine::on_message(Context& ctx, const Message& m) {
  switch (m.type) {
    case MsgType::kStart:
      if (!started_) {
        started_ = true;
        next_issue_at_ = ctx.now();
      }
      return;
    case MsgType::kStop:
      started_ = false;
      waiting_ = false;
      round_cmds_.clear();
      round_done_.clear();
      round_open_ = 0;
      return;
    case MsgType::kClientReplyBatch:
      for_each_reply(m, [&](const Message& each) { on_message(ctx, each); });
      return;
    case MsgType::kClientReply: {
      if (cfg_.coalesce > 1) {
        on_round_reply(ctx, m);
        return;
      }
      if (!waiting_ || m.u.client_reply.seq != current_seq_) return;  // stale
      waiting_ = false;
      const Nanos now = ctx.now();
      latency_.record(now - first_sent_);
      committed_++;
      if (commit_series_ != nullptr) commit_series_->record(now);
      if (m.u.client_reply.leader_hint != kNoNode) target_ = m.u.client_reply.leader_hint;
      next_issue_at_ = now + cfg_.think_time;
      // True closed loop: with no think time the next request goes out as
      // part of handling the reply, not on the next timer tick.
      if (started_ && cfg_.think_time == 0) issue_next(ctx);
      return;
    }
    default:
      return;
  }
}

void ClientEngine::tick(Context& ctx) {
  if (!started_) return;
  const Nanos now = ctx.now();
  if (cfg_.coalesce > 1) {
    if (waiting_) {
      retry_round(ctx, now);
    } else if (now >= next_issue_at_ && !done()) {
      issue_round(ctx);
    }
    return;
  }
  if (waiting_) {
    if (now - last_sent_ >= cfg_.request_timeout) {
      // The target looks slow; try the next replica with the same command
      // (the (client, seq) dedup makes the duplicate harmless).
      target_ = (target_ + 1) % cfg_.base.num_replicas;
      retries_++;
      last_sent_ = now;
      Message m(MsgType::kClientRequest, ProtoId::kClient, cfg_.base.self, target_);
      // Tell the replica we suspect the leader (paper §7.6: replicas start
      // a takeover when re-targeted clients reach them).
      m.flags = kFlagLeaderSuspect;
      m.u.client_request.cmd = current_cmd_;
      ctx.send(target_, m);
    }
    return;
  }
  if (now >= next_issue_at_ && !done()) issue_next(ctx);
}

}  // namespace ci::consensus
