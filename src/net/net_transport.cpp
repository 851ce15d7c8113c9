// The net transport: one NetNode thread per node over a TCP socket mesh.
// An in-process Registry (spec.net.registry; empty = loopback ephemeral)
// bootstraps the mesh, an optional IoPool (spec.net.io_threads) flushes the
// sockets, and the load manager's kStart release is ONE encoded frame, its
// dst/group restamped per target (NetNode::broadcast).
#include "core/transport.hpp"
#include "net/net_node.hpp"
#include "net/registry.hpp"

namespace ci::core {
namespace {

using consensus::NodeId;

// The manager hosts no protocol: it releases the clients from its
// on_ready hook instead of an Engine::start.
class NoopEngine final : public consensus::Engine {
 public:
  void on_message(consensus::Context&, const consensus::Message&) override {}
};

class NetTransport final : public ThreadedTransport<net::NetNode> {
 public:
  explicit NetTransport(const ClusterSpec& spec) : params_(spec.net) {
    mesh_.port_base = params_.port_base;
    mesh_.ring_bytes = net::ring_bytes_for(spec.engine.batch);
  }
  ~NetTransport() override { shutdown(); }

  void add_load_manager(const Targets& targets) override {
    manager_targets_ = targets;
    add_node(&manager_);
  }

  std::function<void()> doorbell(NodeId node) override {
    return [this, node] { this->node(node).wake(); };
  }

 private:
  void build() override {
    const auto total = static_cast<std::int32_t>(engines_.size());
    net::Endpoint registry_at;  // loopback ephemeral unless the spec names one
    if (!params_.registry.empty()) {
      CI_CHECK_MSG(net::parse_endpoint(params_.registry, &registry_at),
                   "bad net.registry endpoint");
    }
    registry_ = std::make_unique<net::Registry>(registry_at, total);
    CI_CHECK_MSG(registry_->ok(), "cannot bind the net registry");
    if (params_.io_threads > 0) pool_ = std::make_unique<net::IoPool>(params_.io_threads);
    mesh_.registry = registry_->endpoint();
    mesh_.total_nodes = total;
    for (NodeId n = 0; n < total; ++n) {
      nodes_.push_back(std::make_unique<net::NetNode>(
          n, engines_[static_cast<std::size_t>(n)], mesh_, pool_.get()));
    }
    if (total > 0 && engines_.back() == &manager_) {
      nodes_.back()->set_on_ready([targets = manager_targets_, id = total - 1](
                                      net::NetNode& node) {
        node.broadcast(consensus::Message(consensus::MsgType::kStart,
                                          consensus::ProtoId::kControl, id, id),
                       targets);
      });
    }
  }

  NetParams params_;
  net::MeshConfig mesh_;
  NoopEngine manager_;
  Targets manager_targets_;
  std::unique_ptr<net::Registry> registry_;
  std::unique_ptr<net::IoPool> pool_;
};

}  // namespace

std::unique_ptr<Transport> make_net_transport(const ClusterSpec& spec) {
  return std::make_unique<NetTransport>(spec);
}

}  // namespace ci::core
