#include "consensus/applier.hpp"

namespace ci::consensus {

void Applier::drain(Context& ctx, ReplicatedLog& log, NodeId leader_hint) {
  log.drain_instances([&](Instance in, const Batch& value) {
    for (const Command& cmd : value) {
      const Executor::Applied applied = executor_.apply(cmd);
      // Every applied mutation advances the epoch (txn ops lock and stage,
      // so they count too); skips 0 on wrap.
      if (!applied.duplicate && !cmd.is_noop() && cmd.op != Op::kRead &&
          cmd.op != Op::kReadVersioned) {
        if (++write_epoch_ == 0) ++write_epoch_;
      }
      ctx.deliver(in, cmd);
      // Each entry carries the epoch as of its own command: a read and a
      // later write in one instance must not share one.
      if (cmd.client != kNoNode && advocated_.erase(key(cmd)) != 0) {
        owed_.push_back(Owed{cmd.client, ReplyEntry{cmd.seq, write_epoch_, applied.result}});
      }
    }
    send_replies(ctx, in, leader_hint);
  });
}

// One frame per client, in the order clients first appear in the instance;
// each frame keeps its client's commands in decided order.
void Applier::send_replies(Context& ctx, Instance in, NodeId leader_hint) {
  const NodeId self = ctx.self();
  for (std::size_t i = 0; i < owed_.size(); ++i) {
    const NodeId client = owed_[i].client;
    if (client == kNoNode) continue;  // already sent with an earlier entry
    std::size_t same = 0;
    for (std::size_t j = i; j < owed_.size(); ++j) same += owed_[j].client == client;
    if (same == 1) {
      Message reply(MsgType::kClientReply, ProtoId::kClient, self, client);
      reply.u.client_reply.seq = owed_[i].entry.seq;
      reply.u.client_reply.ok = 1;
      reply.u.client_reply.instance = in;
      reply.u.client_reply.result = owed_[i].entry.result;
      reply.u.client_reply.leader_hint = leader_hint;
      reply.u.client_reply.lease_epoch = owed_[i].entry.lease_epoch;
      ctx.send(client, reply);
      continue;
    }
    Message reply(MsgType::kClientReplyBatch, ProtoId::kClient, self, client);
    ClientReplyBatch& b = reply.u.client_reply_batch;
    b.instance = in;
    b.leader_hint = leader_hint;
    for (std::size_t j = i; j < owed_.size(); ++j) {
      if (owed_[j].client != client) continue;
      b.entries[b.count++] = owed_[j].entry;
      owed_[j].client = kNoNode;
    }
    ctx.send(client, reply);
  }
  owed_.clear();
}

}  // namespace ci::consensus
