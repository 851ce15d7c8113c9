// The sim transport: core::Transport over the deterministic SimNet. Every
// node runs on the calling thread in virtual time; faults become SimNet
// slow windows and scheduled calls, so they land at exact virtual instants.
#include <algorithm>

#include "core/transport.hpp"
#include "sim/sim_net.hpp"

namespace ci::core {
namespace {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(const ClusterSpec& spec)
      : net_(spec.sim.model, spec.seed, spec.sim.tick_period) {}

  void add_node(consensus::Engine* engine) override { net_.add_node(engine); }
  void add_load_manager(const Targets&) override {}
  // The first run_until starts the engines at virtual time 0.
  void start() override {}
  void stop() override {}

  Nanos now() const override { return net_.now(); }

  // Steps in whole milliseconds from virtual time 0, checking `done` at
  // each step: where a run ends is part of its bit-exact result.
  void drive_until(Nanos deadline, const std::function<bool()>& done) override {
    const Nanos step = 1 * kMillisecond;
    Nanos t = std::min(step, deadline);
    while (true) {
      net_.run_until(t);
      if (t >= deadline) return;
      if (done && done()) return;
      t = std::min(t + step, deadline);
    }
  }

  std::uint64_t total_messages() const override { return net_.total_messages(); }
  std::uint64_t total_bytes() const override { return net_.total_bytes(); }

  void throttle(consensus::NodeId node, std::uint32_t factor) override {
    if (factor <= 1) {
      net_.heal_node(node, net_.now());
    } else {
      net_.slow_node(node, net_.now(), net_.now() + 3600 * kSecond,
                     static_cast<double>(factor));
    }
  }
  void slow_window(consensus::NodeId node, Nanos from, Nanos to, double factor) override {
    net_.slow_node(node, from, to, factor);
  }
  void stretch_clock(consensus::NodeId node, double rate) override {
    net_.stretch_clock(node, rate);
  }
  void call_at(Nanos t, consensus::NodeId node, std::function<void()> fn) override {
    net_.schedule_call(t, node, std::move(fn));
  }

  std::function<void()> doorbell(consensus::NodeId node) override {
    return [net = &net_, node] { net->kick(node); };
  }

  sim::SimNet* sim() override { return &net_; }

 private:
  sim::SimNet net_;
};

}  // namespace

std::unique_ptr<Transport> make_sim_transport(const ClusterSpec& spec) {
  return std::make_unique<SimTransport>(spec);
}

}  // namespace ci::core
