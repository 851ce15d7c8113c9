// The one seam between a deployment and the runtime that carries its
// messages. core::Cluster and client::ServiceClient wire their engines
// through a Transport and never name a backend again; the three
// implementations are
//   * sim (sim/sim_transport.cpp): a thin layer over the deterministic
//     SimNet, every node on the caller's thread, virtual time;
//   * rt  (rt/rt_transport.cpp): one pinned RtNode thread per node over a
//     QC-libtask qclt::Network;
//   * net (net/net_transport.cpp): one NetNode thread per node over a
//     loopback TCP mesh bootstrapped by a Registry.
// rt and net share ThreadedTransport below, which holds the wall-clock
// fault rule once.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "consensus/engine.hpp"
#include "core/cluster_spec.hpp"

namespace ci::sim {
class SimNet;
}

namespace ci::core {

class Transport {
 public:
  using Targets = std::vector<std::pair<consensus::GroupId, consensus::NodeId>>;

  virtual ~Transport() = default;

  // Hosts `engine` on the next node id (dense from 0, in call order).
  // Before start().
  virtual void add_node(consensus::Engine* engine) = 0;
  // The paper's load manager (§7.1): one more node that sends kStart to
  // every (group, client node) in `targets` once the mesh is up. Sim has no
  // start-up to order and adds nothing: its clients start themselves.
  virtual void add_load_manager(const Targets& targets) = 0;

  virtual void start() = 0;
  // Stops and joins every node thread; idempotent (nothing to do on sim).
  virtual void stop() = 0;

  // Virtual time under sim; the wall clock (now_nanos) under rt and net.
  virtual Nanos now() const = 0;
  // Runs until now() reaches `deadline` or `done` holds, checked once per
  // millisecond of now(). Threaded transports apply their planned faults
  // on the same beat.
  virtual void drive_until(Nanos deadline, const std::function<bool()>& done) = 0;

  // Boundary-crossing messages so far, and the bytes behind them.
  virtual std::uint64_t total_messages() const = 0;
  virtual std::uint64_t total_bytes() const = 0;

  // ---- Faults; `node` is a transport node id ----
  // Multiplies the node's per-message cost by `factor` from now on; 1 heals.
  virtual void throttle(consensus::NodeId node, std::uint32_t factor) = 0;
  // Multiplies the node's cost by `factor` during [from, to), measured from
  // start(); overlapping windows compose by max.
  virtual void slow_window(consensus::NodeId node, Nanos from, Nanos to, double factor) = 0;
  // From now on the node's perceived clock runs `rate` times real speed.
  virtual void stretch_clock(consensus::NodeId node, double rate) = 0;
  // Runs `fn` once at `t` after start(): as an event on the node's
  // timeline under sim, from the driving thread under rt and net.
  virtual void call_at(Nanos t, consensus::NodeId node, std::function<void()> fn) = 0;

  // Makes `node` tick now instead of at its next periodic tick. Empty where
  // the transport has no doorbell (rt). Sim's rings only between drives:
  // the caller serializes it with them.
  virtual std::function<void()> doorbell(consensus::NodeId node) = 0;

  // The simulator behind this transport; null where nodes run on threads.
  virtual sim::SimNet* sim() { return nullptr; }
};

std::unique_ptr<Transport> make_sim_transport(const ClusterSpec& spec);
std::unique_ptr<Transport> make_rt_transport(const ClusterSpec& spec);
std::unique_ptr<Transport> make_net_transport(const ClusterSpec& spec);

inline std::unique_ptr<Transport> make_transport(Backend b, const ClusterSpec& spec) {
  switch (b) {
    case Backend::kSim:
      return make_sim_transport(spec);
    case Backend::kRt:
      return make_rt_transport(spec);
    case Backend::kNet:
      return make_net_transport(spec);
  }
  CI_CHECK_MSG(false, "unreachable backend");
}

// What rt and net share: one Node (RtNode / NetNode) per engine, built at
// start() once the node count is known, and the wall-clock fault rule.
// Subclasses build the nodes and must call shutdown() from their
// destructors, before the mesh the nodes run on goes away.
template <class Node>
class ThreadedTransport : public Transport {
 public:
  void add_node(consensus::Engine* engine) override {
    CI_CHECK(nodes_.empty());
    engines_.push_back(engine);
  }

  void start() override {
    CI_CHECK(nodes_.empty());
    build();
    started_at_ = now_nanos();
    for (auto& n : nodes_) n->start();
  }

  void stop() override {
    if (stopped_) return;
    stopped_ = true;
    for (auto& n : nodes_) n->request_stop();
    for (auto& n : nodes_) n->join();
  }

  Nanos now() const override { return now_nanos(); }

  void drive_until(Nanos deadline, const std::function<bool()>& done) override {
    while (now_nanos() < deadline && !(done && done())) {
      apply_faults(now_nanos() - started_at_);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::uint64_t total_messages() const override {
    std::uint64_t sum = 0;
    for (const auto& n : nodes_) sum += n->messages_sent();
    return sum;
  }
  std::uint64_t total_bytes() const override {
    std::uint64_t sum = 0;
    for (const auto& n : nodes_) sum += n->bytes_sent();
    return sum;
  }

  void throttle(consensus::NodeId node, std::uint32_t factor) override {
    this->node(node).set_slow_factor(factor);
  }
  void slow_window(consensus::NodeId node, Nanos from, Nanos to, double factor) override {
    windows_.push_back({node, from, to, factor});
  }
  void stretch_clock(consensus::NodeId node, double rate) override {
    this->node(node).stretch_clock(rate);
  }
  void call_at(Nanos t, consensus::NodeId, std::function<void()> fn) override {
    calls_.push_back({t, std::move(fn), false});
  }

  Node& node(consensus::NodeId id) {
    CI_CHECK(id >= 0 && id < static_cast<consensus::NodeId>(nodes_.size()));
    return *nodes_[static_cast<std::size_t>(id)];
  }

 protected:
  // Fills nodes_, one Node per entry of engines_ (same index = same id).
  virtual void build() = 0;

  void shutdown() {
    stop();
    nodes_.clear();
  }

  std::vector<consensus::Engine*> engines_;
  std::vector<std::unique_ptr<Node>> nodes_;

 private:
  struct Window {
    consensus::NodeId node;
    Nanos from;
    Nanos to;
    double factor;
  };
  struct Call {
    Nanos at;
    std::function<void()> fn;
    bool fired;  // one-shot: a clock stretch re-run every poll would compound
  };

  void apply_faults(Nanos elapsed) {
    for (Call& c : calls_) {
      if (c.fired || elapsed < c.at) continue;
      c.fired = true;
      c.fn();
    }
    // Each windowed node's factor is recomputed from ALL its windows active
    // now (SimNet::speed_factor's max-over-windows), so overlapping windows
    // compose and healing one cannot erase another. Rounded, and never down
    // to the healthy sentinel: a thread stalls in (factor-1) x 500ns units.
    for (const Window& w : windows_) {
      double factor = 1.0;
      for (const Window& v : windows_) {
        if (v.node == w.node && elapsed >= v.from && elapsed < v.to) {
          factor = std::max(factor, v.factor);
        }
      }
      throttle(w.node, factor <= 1.0
                           ? 1u
                           : std::max(2u, static_cast<std::uint32_t>(factor + 0.5)));
    }
  }

  std::vector<Window> windows_;
  std::vector<Call> calls_;
  Nanos started_at_ = 0;
  bool stopped_ = false;
};

}  // namespace ci::core
