// The net backend adapter: plugs a core::ShardedDeployment into a TCP
// socket mesh. The third sibling of SimCluster/RtCluster — identical
// surface, so harness::run, the benches, sweep_diff, and the fault sweeps
// drive it unchanged, with zero changes to the protocol engines.
//
// What it owns beyond RtCluster's shape:
//   * an in-process Registry (spec.net.registry names where it binds;
//     empty = loopback ephemeral) that bootstraps the node mesh;
//   * one NetNode per transport node plus a "load manager" node whose
//     on_ready hook broadcasts kStart to every (group, client node) over
//     the encode-once fan-out path;
//   * an optional IoPool (spec.net.io_threads) of dedicated socket
//     flushers;
//   * kill_node(): genuine fail-stop — the node drops every socket and
//     stops, its peers see EOF; the net fault suite asserts no acked
//     command is lost across the kill.
//
// Delivery logging, fault application (kSlowNode, kStretchClock), and
// collection mirror RtCluster: logs are written only by each node's own
// thread and replayed into the per-group recorders at collect().
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster_spec.hpp"
#include "core/run_result.hpp"
#include "core/sharded_deployment.hpp"
#include "net/net_node.hpp"
#include "net/registry.hpp"

namespace ci::net {

using consensus::ClientEngine;
using core::ClusterSpec;
using core::RunResult;
using core::ShardSpec;

class NetCluster {
 public:
  explicit NetCluster(const ClusterSpec& spec);
  explicit NetCluster(const ShardSpec& shard);
  ~NetCluster();

  NetCluster(const NetCluster&) = delete;
  NetCluster& operator=(const NetCluster&) = delete;

  // Starts node threads; the manager's on_ready broadcast releases the
  // clients once the whole mesh is up.
  void start();

  // Blocks until all clients finished their quota or `max_wall` elapsed,
  // applying the spec's FaultPlan along the way, then stops all nodes.
  RunResult run_to_completion(Nanos max_wall = 30 * kSecond);

  void stop();
  RunResult collect();
  RunResult collect_group(GroupId g);

  // Portable slow-core injection, as RtCluster::throttle_node.
  void throttle_node(consensus::NodeId node, std::uint32_t factor);

  // Fail-stop: drops every socket of `node` and stops it. Its peers see
  // connection EOF; the failure detector takes over from there.
  void kill_node(consensus::NodeId node);

  void tick_faults() { apply_faults(now_nanos() - started_at_); }

  // The transport node `node` (fault injection and counters).
  NetNode& node(consensus::NodeId node) { return *nodes_.at(static_cast<std::size_t>(node)); }

  // The canonical poll loop: ticks faults until `wall_deadline` (absolute
  // now_nanos() time) or until every client finished its quota.
  void drive_until(Nanos wall_deadline);

  core::ShardedDeployment& sharded() { return dep_; }
  std::int32_t num_groups() const { return dep_.num_groups(); }
  core::Deployment& deployment() { return dep_.group(0); }
  ClientEngine* client(std::int32_t i) { return dep_.group(0).client(i); }
  std::int32_t client_count() const { return dep_.group(0).client_count(); }
  bool clients_done() const { return dep_.clients_done(); }

  // Live counters (atomics only) for windowed measurement while running.
  std::uint64_t live_committed() const { return dep_.total_committed(); }
  std::uint64_t live_issued() const { return dep_.total_issued(); }
  std::uint64_t live_local_reads() const { return dep_.total_local_reads(); }
  std::uint64_t live_messages() const;
  std::uint64_t live_bytes() const;

 private:
  class NoopEngine;

  void apply_faults(Nanos elapsed);
  void replay_delivery_logs();

  ShardSpec shard_;
  core::ShardedDeployment dep_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<IoPool> pool_;
  std::unique_ptr<consensus::Engine> manager_engine_;
  std::vector<std::unique_ptr<NetNode>> nodes_;
  // Per transport node: every (group, local id, instance, command) its
  // engines executed. Written only by that node's thread, read after join().
  std::vector<std::vector<std::tuple<GroupId, consensus::NodeId, consensus::Instance,
                                     consensus::Command>>>
      delivery_logs_;
  // One-shot latch per planned kStretchClock event (index into
  // faults.events): a skewed oscillator is applied once, never re-anchored.
  std::vector<bool> stretch_fired_;
  Nanos started_at_ = 0;
  Nanos stopped_at_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool collected_ = false;
};

}  // namespace ci::net
