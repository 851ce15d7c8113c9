#include "core/cluster.hpp"

#include "common/check.hpp"
#include "core/one_paxos.hpp"

namespace ci::core {

using consensus::Command;
using consensus::Instance;
using consensus::NodeId;

Cluster::Cluster(Backend backend, const ShardSpec& shard)
    : threaded_(backend != Backend::kSim),
      // Sim clients start themselves at virtual time 0; threaded ones wait
      // for the load manager's kStart.
      dep_(shard, /*auto_start_clients=*/!threaded_),
      transport_(make_transport(backend, shard.base)) {
  for (NodeId n = 0; n < dep_.num_nodes(); ++n) transport_->add_node(dep_.node_engine(n));
  transport_->add_load_manager(dep_.client_targets());

  if (threaded_) {
    delivery_logs_.resize(static_cast<std::size_t>(dep_.num_nodes()));
    dep_.set_deliver_hook([this](NodeId global, GroupId g, NodeId local, Instance in,
                                 const Command& cmd) {
      delivery_logs_[static_cast<std::size_t>(global)].emplace_back(g, local, in, cmd);
    });
  } else {
    dep_.set_deliver_hook([this](NodeId, GroupId g, NodeId local, Instance in,
                                 const Command& cmd) { dep_.recorder(g).record(local, in, cmd); });
  }

  // The FaultPlan is a per-group template: each event hits its group-local
  // node in EVERY group (under co-location one shared transport node;
  // duplicate windows compose by max, so that is harmless).
  for (const FaultEvent& f : shard.base.faults.events) {
    for (GroupId g = 0; g < dep_.num_groups(); ++g) {
      const NodeId node = dep_.global_node(g, f.node);
      switch (f.kind) {
        case FaultEvent::Kind::kSlowNode:
          transport_->slow_window(node, f.at, f.until, f.factor);
          break;
        case FaultEvent::Kind::kResetAcceptor: {
          // Deterministic state surgery: only the simulator applies it
          // race-free.
          CI_CHECK_MSG(!threaded_, "acceptor reset faults run on the sim backend only");
          auto* opx = dep_.group(g).one_paxos(f.node);
          CI_CHECK(opx != nullptr);
          transport_->call_at(f.at, node, [opx] { opx->reset_acceptor_state(); });
          break;
        }
        case FaultEvent::Kind::kStretchClock:
          transport_->call_at(f.at, node, [t = transport_.get(), node, rate = f.factor] {
            t->stretch_clock(node, rate);
          });
          break;
      }
    }
  }
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  CI_CHECK(!started_);
  started_ = true;
  transport_->start();
  started_at_ = transport_->now();
}

void Cluster::run_until(Nanos deadline) {
  if (!started_) start();
  const bool quota = dep_.shard().base.workload.requests_per_client > 0;
  transport_->drive_until(deadline, [this, quota] { return quota && dep_.clients_done(); });
}

void Cluster::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopped_at_ = transport_->now();
  transport_->stop();
}

RunResult Cluster::run_to_completion(Nanos max_run) {
  run_until(now() + max_run);
  stop();
  return collect();
}

void Cluster::reset_acceptor_state_at(NodeId node, Nanos t) {
  CI_CHECK_MSG(!threaded_, "acceptor reset faults run on the sim backend only");
  auto* opx = dep_.group(0).one_paxos(node);
  CI_CHECK(opx != nullptr);
  transport_->call_at(t, dep_.global_node(0, node), [opx] { opx->reset_acceptor_state(); });
}

void Cluster::replay_delivery_logs() {
  if (!threaded_ || replayed_) return;
  CI_CHECK_MSG(stopped_, "collect the rt/net backends after stop()");
  replayed_ = true;
  for (const auto& log : delivery_logs_) {
    for (const auto& [g, local, in, cmd] : log) dep_.recorder(g).record(local, in, cmd);
  }
}

RunResult Cluster::collect() {
  replay_delivery_logs();
  RunResult res = dep_.collect();
  res.duration = (stopped_ ? stopped_at_ : transport_->now()) - started_at_;
  res.total_messages = transport_->total_messages();
  res.total_bytes = transport_->total_bytes();
  return res;
}

RunResult Cluster::collect_group(GroupId g) {
  replay_delivery_logs();
  RunResult res = dep_.collect_group(g);
  res.duration = (stopped_ ? stopped_at_ : transport_->now()) - started_at_;
  return res;
}

}  // namespace ci::core
