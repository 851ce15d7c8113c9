// The rt transport: one RtNode thread per node over a QC-libtask
// qclt::Network, mirroring the paper's setup (§7.1): node i pinned to core
// i (wrapped modulo the machine, which the benches report as
// oversubscription), and the load manager on the last core.
#include "common/affinity.hpp"
#include "core/transport.hpp"
#include "rt/rt_node.hpp"

namespace ci::core {
namespace {

using consensus::GroupId;
using consensus::NodeId;

// Releases every client with a kStart from its engine start() hook; one per
// (group, client node), so each group's demux can route it.
class LoadManagerEngine final : public consensus::Engine {
 public:
  explicit LoadManagerEngine(Transport::Targets targets) : targets_(std::move(targets)) {}

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
  Transport::Targets targets_;
};

class RtTransport final : public ThreadedTransport<rt::RtNode> {
 public:
  explicit RtTransport(const ClusterSpec& spec)
      : slots_(rt::slots_for(spec.engine.batch)), pin_(spec.rt.pin && pinning_available()) {}
  ~RtTransport() override { shutdown(); }

  void add_load_manager(const Targets& targets) override {
    manager_ = std::make_unique<LoadManagerEngine>(targets);
    add_node(manager_.get());
  }

  std::function<void()> doorbell(NodeId) override { return {}; }

 private:
  void build() override {
    net_ = std::make_unique<qclt::Network>(slots_);
    const auto total = static_cast<std::int32_t>(engines_.size());
    for (NodeId n = 0; n < total; ++n) {
      const bool is_manager = manager_ != nullptr && n == total - 1;
      const int core = !pin_ ? -1 : is_manager ? online_cores() - 1
                                               : static_cast<int>(n) % online_cores();
      nodes_.push_back(std::make_unique<rt::RtNode>(
          n, total, engines_[static_cast<std::size_t>(n)], net_.get(), core));
    }
  }

  std::uint32_t slots_;
  bool pin_;
  std::unique_ptr<consensus::Engine> manager_;
  std::unique_ptr<qclt::Network> net_;
};

}  // namespace

std::unique_ptr<Transport> make_rt_transport(const ClusterSpec& spec) {
  return std::make_unique<RtTransport>(spec);
}

}  // namespace ci::core
