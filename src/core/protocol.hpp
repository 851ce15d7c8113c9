// Protocol selection and node composition shared by the simulator and the
// real-thread runtime — the top-level factory of the library.
#pragma once

#include <memory>

#include "consensus/engine.hpp"

namespace ci::core {

using consensus::Context;
using consensus::Engine;
using consensus::EngineConfig;
using consensus::Message;
using consensus::MsgType;
using consensus::NodeId;

enum class Protocol { kTwoPc, kBasicPaxos, kMultiPaxos, kOnePaxos };

const char* protocol_name(Protocol p);

struct ProtocolOptions {
  // 2PC coordinator / Paxos-family initial leader.
  NodeId leader = 0;
  // 1Paxos initial active acceptor (§5.4 placement: != leader).
  NodeId initial_acceptor = 1;
  // Multi-Paxos acceptor-set size (-1 = all replicas) for the A2 ablation.
  std::int32_t acceptor_count = -1;
};

// Builds the replica engine for one node.
std::unique_ptr<Engine> make_replica_engine(Protocol p, const EngineConfig& cfg,
                                            const ProtocolOptions& opts);

// A joint node (paper §7.4): one replica engine plus one client engine
// sharing a node id. Client-facing traffic routes to the client engine,
// everything else to the replica.
class JointEngine final : public Engine {
 public:
  JointEngine(Engine* replica, Engine* client) : replica_(replica), client_(client) {}

  void start(Context& ctx) override {
    replica_->start(ctx);
    client_->start(ctx);
  }

  void on_message(Context& ctx, const Message& m) override {
    switch (m.type) {
      case MsgType::kClientReply:
      case MsgType::kClientReplyBatch:
      case MsgType::kStart:
      case MsgType::kStop:
        client_->on_message(ctx, m);
        return;
      default:
        replica_->on_message(ctx, m);
        return;
    }
  }

  void tick(Context& ctx) override {
    replica_->tick(ctx);
    client_->tick(ctx);
  }

  NodeId believed_leader() const override { return replica_->believed_leader(); }

 private:
  Engine* replica_;
  Engine* client_;
};

}  // namespace ci::core
