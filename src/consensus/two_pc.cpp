#include "consensus/two_pc.hpp"

namespace ci::consensus {
namespace {

std::uint64_t client_key(const Command& cmd) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.client)) << 32) | cmd.seq;
}

}  // namespace

TwoPcEngine::TwoPcEngine(const TwoPcConfig& cfg)
    : cfg_(cfg), executor_(cfg.base.state_machine) {}

void TwoPcEngine::start(Context&) {}

void TwoPcEngine::on_message(Context& ctx, const Message& m) {
  switch (m.type) {
    case MsgType::kClientRequest:
      if (!is_coordinator()) {
        // 2PC has a fixed coordinator; redirect the client there.
        Message fwd = m;
        fwd.dst = cfg_.coordinator;
        ctx.send(cfg_.coordinator, fwd);
        return;
      }
      if (const Command& cmd = m.u.client_request.cmd; cmd.client != kNoNode) {
        if (advocating_.count(client_key(cmd)) != 0) return;
        if (std::uint64_t result = 0; executor_.applied(cmd, &result)) {
          reply(ctx, kNoInstance, cmd, result);
          return;
        }
        advocating_.insert(client_key(cmd));
      }
      pending_.push_back(m.u.client_request.cmd);
      pump_rounds(ctx);
      return;
    case MsgType::kTwoPcPrepare:
      handle_prepare(ctx, m);
      return;
    case MsgType::kTwoPcPrepareAck: {
      auto it = rounds_.find(m.u.two_pc_ack.instance);
      if (it == rounds_.end() || it->second.phase != Phase::kPreparing) return;
      it->second.ack_mask |= 1ULL << m.src;
      if (it->second.ack_mask == all_replicas_mask()) broadcast_commit(ctx, it->first, it->second);
      return;
    }
    case MsgType::kTwoPcPrepareNack: {
      // Cannot happen with a single coordinator; handled for completeness:
      // roll the round back and retry later.
      auto it = rounds_.find(m.u.two_pc_ack.instance);
      if (it == rounds_.end() || it->second.phase != Phase::kPreparing) return;
      Message rb(MsgType::kTwoPcRollback, ProtoId::kTwoPc, cfg_.base.self, kNoNode);
      rb.u.two_pc_ack.instance = it->first;
      for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
        if (r == cfg_.base.self) continue;
        rb.dst = r;
        ctx.send(r, rb);
      }
      prepared_.erase(it->first);
      pending_.push_front(it->second.cmd);
      rounds_.erase(it);
      return;
    }
    case MsgType::kTwoPcCommit:
      handle_commit(ctx, m);
      return;
    case MsgType::kTwoPcCommitAck: {
      auto it = rounds_.find(m.u.two_pc_ack.instance);
      if (it == rounds_.end() || it->second.phase != Phase::kCommitting) return;
      it->second.ack_mask |= 1ULL << m.src;
      if (it->second.ack_mask == all_replicas_mask()) {
        // Round fully acknowledged: reply to the client and free the slot.
        finish_round(ctx, it->first, it->second);
        pump_rounds(ctx);
      }
      return;
    }
    case MsgType::kTwoPcRollback:
      prepared_.erase(m.u.two_pc_ack.instance);
      return;
    default:
      return;  // not a 2PC message
  }
}

void TwoPcEngine::tick(Context& ctx) {
  if (!is_coordinator()) return;
  const Nanos now = ctx.now();
  for (auto& [in, r] : rounds_) {
    if (now - r.last_send < cfg_.base.retry_timeout) continue;
    r.last_send = now;
    const MsgType t =
        r.phase == Phase::kPreparing ? MsgType::kTwoPcPrepare : MsgType::kTwoPcCommit;
    for (NodeId peer = 0; peer < cfg_.base.num_replicas; ++peer) {
      if (peer == cfg_.base.self || (r.ack_mask & (1ULL << peer)) != 0) continue;
      Message m(t, ProtoId::kTwoPc, cfg_.base.self, peer);
      if (t == MsgType::kTwoPcPrepare) {
        m.u.two_pc_prepare.instance = in;
        m.u.two_pc_prepare.cmd = r.cmd;
      } else {
        m.u.two_pc_ack.instance = in;
      }
      ctx.send(peer, m);
    }
  }
}

void TwoPcEngine::pump_rounds(Context& ctx) {
  while (!pending_.empty() &&
         static_cast<std::int32_t>(rounds_.size()) < cfg_.base.pipeline_window) {
    const Command cmd = pending_.front();
    pending_.pop_front();
    begin_round(ctx, next_instance_++, cmd, /*has_client=*/cmd.client != kNoNode);
  }
}

void TwoPcEngine::begin_round(Context& ctx, Instance in, const Command& cmd, bool has_client) {
  Round r;
  r.cmd = cmd;
  r.has_client = has_client;
  r.last_send = ctx.now();
  r.ack_mask = 1ULL << cfg_.base.self;  // self-prepare succeeds locally
  prepared_.emplace(in, cmd);
  advocated_.emplace(in, cmd);
  rounds_.emplace(in, r);
  for (NodeId peer = 0; peer < cfg_.base.num_replicas; ++peer) {
    if (peer == cfg_.base.self) continue;
    Message m(MsgType::kTwoPcPrepare, ProtoId::kTwoPc, cfg_.base.self, peer);
    m.u.two_pc_prepare.instance = in;
    m.u.two_pc_prepare.cmd = cmd;
    ctx.send(peer, m);
  }
  // Single-replica degenerate deployment commits immediately.
  auto it = rounds_.find(in);
  if (it != rounds_.end() && it->second.ack_mask == all_replicas_mask()) {
    broadcast_commit(ctx, in, it->second);
  }
}

void TwoPcEngine::broadcast_commit(Context& ctx, Instance in, Round& r) {
  r.phase = Phase::kCommitting;
  r.ack_mask = 1ULL << cfg_.base.self;
  r.last_send = ctx.now();
  for (NodeId peer = 0; peer < cfg_.base.num_replicas; ++peer) {
    if (peer == cfg_.base.self) continue;
    Message m(MsgType::kTwoPcCommit, ProtoId::kTwoPc, cfg_.base.self, peer);
    m.u.two_pc_ack.instance = in;
    ctx.send(peer, m);
  }
  // The coordinator executes at the commit decision point.
  prepared_.erase(in);
  log_.learn(in, r.cmd);
  log_.drain([&](Instance din, const Command& dcmd) { on_executed(ctx, din, dcmd); });
  // Degenerate single-replica case: already fully acked.
  if (r.ack_mask == all_replicas_mask()) finish_round(ctx, in, r);
}

// Frees the round's slot (`r` dies with it) after replying to its client.
void TwoPcEngine::finish_round(Context& ctx, Instance in, const Round& r) {
  if (r.has_client) {
    auto rit = results_.find(in);
    reply(ctx, in, r.cmd, rit == results_.end() ? 0 : rit->second);
    results_.erase(in);
    advocating_.erase(client_key(r.cmd));
  }
  committed_rounds_++;
  rounds_.erase(in);
}

void TwoPcEngine::reply(Context& ctx, Instance in, const Command& cmd, std::uint64_t result) {
  Message m(MsgType::kClientReply, ProtoId::kClient, cfg_.base.self, cmd.client);
  m.u.client_reply.seq = cmd.seq;
  m.u.client_reply.ok = 1;
  m.u.client_reply.instance = in;
  m.u.client_reply.leader_hint = cfg_.coordinator;
  m.u.client_reply.result = result;
  ctx.send(cmd.client, m);
}

void TwoPcEngine::handle_prepare(Context& ctx, const Message& m) {
  const Instance in = m.u.two_pc_prepare.instance;
  if (log_.is_learned(in)) {
    // Duplicate of an already committed round: the commit must have been
    // processed; re-ack it.
    Message ack(MsgType::kTwoPcCommitAck, ProtoId::kTwoPc, cfg_.base.self, m.src);
    ack.u.two_pc_ack.instance = in;
    ctx.send(m.src, ack);
    return;
  }
  auto [it, inserted] = prepared_.try_emplace(in, m.u.two_pc_prepare.cmd);
  if (!inserted && !(it->second == m.u.two_pc_prepare.cmd)) {
    // Locked by a different coordinator's command.
    Message nack(MsgType::kTwoPcPrepareNack, ProtoId::kTwoPc, cfg_.base.self, m.src);
    nack.u.two_pc_ack.instance = in;
    ctx.send(m.src, nack);
    return;
  }
  Message ack(MsgType::kTwoPcPrepareAck, ProtoId::kTwoPc, cfg_.base.self, m.src);
  ack.u.two_pc_ack.instance = in;
  ctx.send(m.src, ack);
}

void TwoPcEngine::handle_commit(Context& ctx, const Message& m) {
  const Instance in = m.u.two_pc_ack.instance;
  auto it = prepared_.find(in);
  if (it != prepared_.end()) {
    log_.learn(in, it->second);
    prepared_.erase(it);
    log_.drain([&](Instance din, const Command& dcmd) { on_executed(ctx, din, dcmd); });
  }
  // Ack even when this is a duplicate commit: the coordinator may be
  // retransmitting because the previous ack raced with the retry timer.
  Message ack(MsgType::kTwoPcCommitAck, ProtoId::kTwoPc, cfg_.base.self, m.src);
  ack.u.two_pc_ack.instance = in;
  ctx.send(m.src, ack);
}

void TwoPcEngine::on_executed(Context& ctx, Instance in, const Command& cmd) {
  const Executor::Applied applied = executor_.apply(cmd);
  ctx.deliver(in, cmd);
  if (is_coordinator() && advocated_.count(in) != 0) {
    results_[in] = applied.result;
    advocated_.erase(in);
  }
}

}  // namespace ci::consensus
