// One deployment over one transport: the cluster every bench, example and
// test runs, on whichever backend it names. A core::ShardedDeployment
// provides the engines, clients and agreement recorders; a core::Transport
// carries their messages (core/transport.hpp). This class adds what every
// backend shares: the FaultPlan, the run loop, and collection.
//
// Agreement recording follows the transport: under sim every delivery
// reaches its group's recorder as it happens (between drives, on the
// driving thread); under rt and net each node thread logs its own, and the
// logs are replayed into the recorders at the first collect() after stop().
//
// Constructing from a plain ClusterSpec runs the single-group layout; the
// single-group accessors below then address group 0.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster_spec.hpp"
#include "core/run_result.hpp"
#include "core/sharded_deployment.hpp"
#include "core/transport.hpp"

namespace ci::core {

class Cluster {
 public:
  Cluster(Backend backend, const ShardSpec& shard);
  Cluster(Backend backend, const ClusterSpec& spec) : Cluster(backend, ShardSpec(spec)) {}
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Starts the transport (run_until starts it too); rt and net release the
  // clients once their mesh is up.
  void start();
  // Drives until now() reaches `deadline` or every client of every group
  // finished its request quota, applying the FaultPlan along the way.
  void run_until(Nanos deadline);
  // Stops every node thread (a no-op beyond bookkeeping under sim).
  void stop();
  // run_until(now() + max_run), stop(), collect().
  RunResult run_to_completion(Nanos max_run = 30 * kSecond);

  // The run so far, merged across groups; duration spans start() to stop()
  // (or to now() while running). Under rt and net, call after stop().
  RunResult collect();
  // One group's view. total_messages stays 0: a transport node's traffic
  // is not attributable to one group (co-location shares nodes).
  RunResult collect_group(GroupId g);

  // Virtual time under sim, the wall clock under rt and net.
  Nanos now() const { return transport_->now(); }
  bool threaded() const { return threaded_; }
  Transport& transport() { return *transport_; }
  std::uint64_t total_messages() const { return transport_->total_messages(); }
  std::uint64_t total_bytes() const { return transport_->total_bytes(); }

  // Ad-hoc faults beside the spec's FaultPlan. `node` is a transport node
  // id: under sharding, map through sharded().global_node(g, local).
  void throttle_node(consensus::NodeId node, std::uint32_t factor) {
    transport_->throttle(node, factor);
  }
  void slow_node(consensus::NodeId node, Nanos from, Nanos to, double factor) {
    transport_->slow_window(node, from, to, factor);
  }
  // Sim only, 1Paxos only: silent acceptor reboot of group 0's replica
  // `node` at virtual time t.
  void reset_acceptor_state_at(consensus::NodeId node, Nanos t);

  ShardedDeployment& sharded() { return dep_; }
  // Group 0's deployment — the whole deployment when unsharded.
  Deployment& deployment() { return dep_.group(0); }

  // ---- Aggregates span all groups; client accessors address group 0 ----
  bool clients_done() const { return dep_.clients_done(); }
  std::uint64_t total_committed() const { return dep_.total_committed(); }
  std::uint64_t total_issued() const { return dep_.total_issued(); }
  bool consistent() const { return dep_.consistent(); }
  consensus::ClientEngine* client(std::int32_t i) { return dep_.group(0).client(i); }
  std::int32_t client_count() const { return dep_.group(0).client_count(); }

 private:
  void replay_delivery_logs();

  bool threaded_;
  ShardedDeployment dep_;
  std::unique_ptr<Transport> transport_;
  // Threaded transports: per transport node, every (group, local id,
  // instance, command) its engines executed. Written only by that node's
  // thread (the outer vector never resizes while running), read after stop().
  std::vector<std::vector<std::tuple<GroupId, consensus::NodeId, consensus::Instance,
                                     consensus::Command>>>
      delivery_logs_;
  Nanos started_at_ = 0;
  Nanos stopped_at_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool replayed_ = false;
};

}  // namespace ci::core
