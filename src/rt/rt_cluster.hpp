// The rt backend adapter: plugs a core::ShardedDeployment into real OS
// threads over QC-libtask message passing, mirroring the paper's setup
// (§7.1): replica nodes pinned to cores 0..R-1, clients on the following
// cores, a "load manager" that releases the clients with a start message,
// and slow-core fault injection.
//
// All wiring (including the group demux layer) and agreement checking live
// in the shared deployment layers; this class owns the transport and
// threads, logs each node's deliveries from its own thread (replayed into
// the per-group agreement recorders at collect()), and applies the spec's
// FaultPlan at wall-clock offsets while running.
//
// Constructing from a plain ClusterSpec runs the single-group layout; the
// single-group accessors below then address group 0.
//
// On machines with fewer cores than nodes, pinning wraps modulo the core
// count (oversubscription), which the benches report alongside results.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster_spec.hpp"
#include "core/sharded_deployment.hpp"
#include "core/run_result.hpp"
#include "qclt/net.hpp"
#include "rt/rt_node.hpp"

namespace ci::rt {

using consensus::ClientEngine;
using consensus::GroupId;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;
using core::RunResult;
using core::ShardSpec;

class RtCluster {
 public:
  explicit RtCluster(const ClusterSpec& spec);
  explicit RtCluster(const ShardSpec& shard);
  ~RtCluster();

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  // Starts node threads and releases the clients.
  void start();

  // Blocks until all clients finished their quota or `max_wall` elapsed
  // (whichever first), applying the spec's FaultPlan along the way, then
  // stops all nodes.
  RunResult run_to_completion(Nanos max_wall = 30 * kSecond);

  // Manual control for time-series experiments (Fig. 11). For commit
  // timestamps, call client(i)->set_commit_series(...) before start().
  void stop();
  RunResult collect();
  RunResult collect_group(GroupId g);

  // Portable slow-core injection: multiplies the node's per-message cost
  // (see RtNode::set_slow_factor). factor 1 = healthy. `node` is a
  // transport id; under sharding, map through sharded().global_node.
  void throttle_node(consensus::NodeId node, std::uint32_t factor);

  // Applies any FaultPlan events whose wall-clock offset has been reached.
  // run_to_completion calls this itself; manual drivers (and the harness)
  // call it from their poll loops.
  void tick_faults() { apply_faults(now_nanos() - started_at_); }

  // The canonical poll loop: ticks faults until `wall_deadline` (absolute
  // now_nanos() time) or until every client finished its quota.
  void drive_until(Nanos wall_deadline);

  core::ShardedDeployment& sharded() { return dep_; }
  std::int32_t num_groups() const { return dep_.num_groups(); }
  core::Deployment& deployment() { return dep_.group(0); }
  ClientEngine* client(std::int32_t i) { return dep_.group(0).client(i); }
  std::int32_t client_count() const { return dep_.group(0).client_count(); }
  bool clients_done() const { return dep_.clients_done(); }

  // Live counters (atomics only) for windowed measurement while running;
  // aggregated over every group.
  std::uint64_t live_committed() const { return dep_.total_committed(); }
  std::uint64_t live_issued() const { return dep_.total_issued(); }
  std::uint64_t live_local_reads() const { return dep_.total_local_reads(); }
  std::uint64_t live_messages() const;
  std::uint64_t live_bytes() const;

 private:
  class LoadManagerEngine;

  int core_for(consensus::NodeId node) const;
  void apply_faults(Nanos elapsed);
  void replay_delivery_logs();

  ShardSpec shard_;
  core::ShardedDeployment dep_;
  std::unique_ptr<consensus::Engine> load_manager_;
  std::unique_ptr<qclt::Network> net_;
  std::vector<std::unique_ptr<RtNode>> nodes_;
  // Per transport node: every (group, local id, instance, command) its
  // engines executed. Written only by that node's thread (outer vector
  // never resizes while running), read after join().
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

}  // namespace ci::rt
