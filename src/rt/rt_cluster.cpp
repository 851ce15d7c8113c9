#include "rt/rt_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/affinity.hpp"
#include "common/check.hpp"

namespace ci::rt {

using consensus::NodeId;
using core::FaultEvent;

// The paper's load manager (§7.1, run on core 47): releases all clients
// with a start message once its node is up. Sharded deployments get one
// kStart per (group, client node) so every group's demux can route it.
class RtCluster::LoadManagerEngine final : public consensus::Engine {
 public:
  explicit LoadManagerEngine(std::vector<std::pair<GroupId, NodeId>> targets)
      : targets_(std::move(targets)) {}

  void start(consensus::Context& ctx) override {
    for (const auto& [g, node] : targets_) {
      consensus::Message m(consensus::MsgType::kStart, consensus::ProtoId::kControl,
                           ctx.self(), node);
      m.group = g;
      ctx.send(node, m);
    }
  }

  void on_message(consensus::Context&, const consensus::Message&) override {}

 private:
  std::vector<std::pair<GroupId, NodeId>> targets_;
};

RtCluster::RtCluster(const ClusterSpec& spec) : RtCluster(ShardSpec(spec)) {}

RtCluster::RtCluster(const ShardSpec& shard)
    : shard_(shard), dep_(shard, /*auto_start_clients=*/false) {
  // Node ids: the deployment's transport nodes, then the load manager.
  const NodeId manager_id = dep_.num_nodes();
  const std::int32_t total = manager_id + 1;

  for (const FaultEvent& f : shard_.base.faults.events) {
    // Silent acceptor reboot is deterministic state surgery; only the
    // simulator can apply it race-free. Slow windows and clock stretches
    // both apply cleanly at wall-clock offsets.
    CI_CHECK(f.kind == FaultEvent::Kind::kSlowNode ||
             f.kind == FaultEvent::Kind::kStretchClock);
  }
  stretch_fired_.assign(shard_.base.faults.events.size(), false);

  net_ = std::make_unique<qclt::Network>(slots_for(shard_.base.engine.batch));

  delivery_logs_.resize(static_cast<std::size_t>(dep_.num_nodes()));
  dep_.set_deliver_hook([this](NodeId global, GroupId g, NodeId local,
                               consensus::Instance in, const consensus::Command& cmd) {
    delivery_logs_[static_cast<std::size_t>(global)].emplace_back(g, local, in, cmd);
  });

  for (NodeId n = 0; n < dep_.num_nodes(); ++n) {
    nodes_.push_back(std::make_unique<RtNode>(n, total, dep_.node_engine(n), net_.get(),
                                              core_for(n)));
  }
  load_manager_ = std::make_unique<LoadManagerEngine>(dep_.client_targets());
  // The load manager runs on the machine's last core (core 47 in §7.1).
  nodes_.push_back(std::make_unique<RtNode>(manager_id, total, load_manager_.get(),
                                            net_.get(),
                                            shard_.base.rt.pin && pinning_available()
                                                ? online_cores() - 1
                                                : -1));
}

RtCluster::~RtCluster() { stop(); }

int RtCluster::core_for(NodeId node) const {
  if (!shard_.base.rt.pin || !pinning_available()) return -1;
  // Transport node ids map straight onto cores, wrapped modulo the machine
  // (the paper used a 48-core box; we report oversubscription). The
  // placement policy decides which group's replicas share a core.
  return static_cast<int>(node) % online_cores();
}

void RtCluster::start() {
  CI_CHECK(!started_);
  started_ = true;
  started_at_ = now_nanos();
  // The load-manager node broadcasts kStart from its engine start() hook,
  // releasing every client of every group (§7.1).
  for (auto& n : nodes_) n->start();
}

void RtCluster::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopped_at_ = now_nanos();
  for (auto& n : nodes_) n->request_stop();
  for (auto& n : nodes_) n->join();
}

void RtCluster::apply_faults(Nanos elapsed) {
  // Recompute each planned node's factor from ALL windows active now
  // (mirrors SimNet::speed_factor's max-over-windows), so overlapping
  // windows compose and healing one window cannot erase another.
  for (std::size_t i = 0; i < shard_.base.faults.events.size(); ++i) {
    const FaultEvent& f = shard_.base.faults.events[i];
    if (f.kind == FaultEvent::Kind::kStretchClock) {
      // One-shot: re-anchoring every poll would compound the transform.
      if (stretch_fired_[i] || elapsed < f.at) continue;
      stretch_fired_[i] = true;
      for (GroupId g = 0; g < dep_.num_groups(); ++g) {
        nodes_[static_cast<std::size_t>(dep_.global_node(g, f.node))]->stretch_clock(
            f.factor);
      }
      continue;
    }
    double factor = 1.0;
    for (const FaultEvent& g : shard_.base.faults.events) {
      if (g.kind != FaultEvent::Kind::kSlowNode) continue;
      if (g.node == f.node && elapsed >= g.at && elapsed < g.until) {
        factor = std::max(factor, g.factor);
      }
    }
    // Round, and never round an intended fault down to the healthy
    // sentinel (rt stall granularity is (factor-1) x 500ns).
    const auto quantized =
        factor <= 1.0 ? 1u
                      : std::max(2u, static_cast<std::uint32_t>(factor + 0.5));
    // Template semantics: the fault hits its group-local node in EVERY
    // group (one shared transport node under co-location).
    for (GroupId g = 0; g < dep_.num_groups(); ++g) {
      throttle_node(dep_.global_node(g, f.node), quantized);
    }
  }
}

void RtCluster::drive_until(Nanos wall_deadline) {
  while (now_nanos() < wall_deadline && !clients_done()) {
    tick_faults();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

RunResult RtCluster::run_to_completion(Nanos max_wall) {
  drive_until(now_nanos() + max_wall);
  stop();
  return collect();
}

std::uint64_t RtCluster::live_messages() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_) sum += n->messages_sent();
  return sum;
}

std::uint64_t RtCluster::live_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_) sum += n->bytes_sent();
  return sum;
}

void RtCluster::replay_delivery_logs() {
  CI_CHECK(stopped_);
  // Feed each node's delivered log into its group's agreement recorder
  // once (the logs are safe to read after join()).
  if (collected_) return;
  collected_ = true;
  for (const auto& log : delivery_logs_) {
    for (const auto& [g, local, in, cmd] : log) {
      dep_.recorder(g).record(local, in, cmd);
    }
  }
}

RunResult RtCluster::collect() {
  replay_delivery_logs();
  RunResult res = dep_.collect();
  res.duration = stopped_at_ - started_at_;
  res.total_messages = live_messages();
  res.total_bytes = live_bytes();
  return res;
}

RunResult RtCluster::collect_group(GroupId g) {
  replay_delivery_logs();
  RunResult res = dep_.collect_group(g);
  res.duration = stopped_at_ - started_at_;
  // total_messages stays 0: transport send counters are per node, and a
  // node's traffic is not attributable to one group (co-location shares
  // nodes across groups). Read collect() for whole-transport counts.
  return res;
}

void RtCluster::throttle_node(NodeId node, std::uint32_t factor) {
  CI_CHECK(node >= 0 && node < static_cast<NodeId>(nodes_.size()));
  nodes_[static_cast<std::size_t>(node)]->set_slow_factor(factor);
}

}  // namespace ci::rt
