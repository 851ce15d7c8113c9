// Backend-agnostic cluster harness: run one ClusterSpec (or a sharded
// ShardSpec) on any backend and get one RunResult back. This is the
// layer benches, examples, and the parity tests program against;
// `--backend={sim,rt,net}`, `--groups=N` and `--placement=...` select the
// runtime and the sharding layout at the command line.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "core/cluster_spec.hpp"
#include "core/run_result.hpp"

namespace ci::harness {

using core::Backend;
using core::ClusterSpec;
using core::Placement;
using core::RunResult;
using core::ShardSpec;

// "sim" / "rt" / "net" -> Backend. Returns false on anything else.
bool parse_backend(const char* s, Backend* out);

// "group-major" / "interleaved" / "colocated" -> Placement.
bool parse_placement(const char* s, Placement* out);

// Scans argv for `--backend=sim|rt|net` (or `--backend sim`). Returns
// false with a message in *err on an unknown value or a missing one; *out
// holds `def` when the flag is absent.
bool try_backend_from_args(int argc, char** argv, Backend def, Backend* out,
                           std::string* err);

// Exiting wrappers for CLI binaries: print the error and exit(2) on any
// malformed flag (unknown value, missing value).
Backend backend_from_args(int argc, char** argv, Backend def = Backend::kSim);
std::int32_t groups_from_args(int argc, char** argv, std::int32_t def = 1);
Placement placement_from_args(int argc, char** argv,
                              Placement def = Placement::kGroupMajor);

// `--batch=N`: commands per agreement instance (leader-side batching;
// consensus/batch.hpp). Non-positive, non-numeric, or beyond the
// compile-time ceiling is an error — `--batch=0` must not silently run
// unbatched. The try_ form reports instead of exiting; *out holds `def`
// when the flag is absent.
bool try_batch_from_args(int argc, char** argv, std::int32_t def, std::int32_t* out,
                         std::string* err);
std::int32_t batch_from_args(int argc, char** argv, std::int32_t def = 1);

// `--batch-flush-us=T`: microseconds a partial batch may wait before it is
// flushed (BatchPolicy::flush_after); T >= 0, default 0 = flush at once.
bool try_batch_flush_from_args(int argc, char** argv, Nanos def, Nanos* out,
                               std::string* err);
Nanos batch_flush_from_args(int argc, char** argv, Nanos def = 0);

// The batching flags (--batch, --batch-flush-us, --flush-policy) folded
// into one policy (defaults: unbatched, fixed flush).
consensus::BatchPolicy batch_policy_from_args(int argc, char** argv);

// `--client-coalesce=N`: commands per client-side kClientCmdBatch frame
// (WorkloadSpec::client_coalesce). N = 1 keeps the legacy one-frame-per-
// command wire; bounded by consensus::kMaxClientBatchCommands. Non-positive,
// non-numeric, or oversized values exit 2 — like --batch, `--client-
// coalesce=0` must not silently run uncoalesced.
bool try_client_coalesce_from_args(int argc, char** argv, std::int32_t def,
                                   std::int32_t* out, std::string* err);
std::int32_t client_coalesce_from_args(int argc, char** argv, std::int32_t def = 1);

// `--txn-mix=P`: fraction (0 <= P <= 1) of workload operations issued as
// cross-shard transactions instead of single-key commands (client/txn.hpp).
// Consumed by the transaction benches/examples; anything outside [0, 1] or
// non-numeric exits 2.
bool try_txn_mix_from_args(int argc, char** argv, double def, double* out,
                           std::string* err);
double txn_mix_from_args(int argc, char** argv, double def = 0.0);

// `--read-mix=P`: fraction (0 <= P <= 1) of workload operations issued as
// reads (WorkloadSpec::read_fraction / a bench's own mix sweep). Anything
// outside [0, 1] or non-numeric exits 2.
bool try_read_mix_from_args(int argc, char** argv, double def, double* out,
                            std::string* err);
double read_mix_from_args(int argc, char** argv, double def = 0.0);

// `--lease-ms=T`: leader lease duration in milliseconds
// (TimeoutProfile::lease / EngineConfig::lease_duration). T = 0 keeps
// leases off (reads replicate); negative, non-numeric, or beyond an hour
// exits 2. Returned in nanoseconds.
bool try_lease_ms_from_args(int argc, char** argv, Nanos def, Nanos* out,
                            std::string* err);
Nanos lease_ms_from_args(int argc, char** argv, Nanos def = 0);

// `--flush-policy=fixed|adaptive`: how a partial batch decides to stop
// waiting (BatchPolicy::flush_mode). `fixed` holds every partial batch for
// the full --batch-flush-us; `adaptive` watches the observed inter-arrival
// gap and flushes immediately once the next command looks farther away than
// the budget (consensus/batch.hpp). Anything else exits 2.
bool try_flush_policy_from_args(int argc, char** argv, consensus::BatchPolicy::FlushMode def,
                                consensus::BatchPolicy::FlushMode* out, std::string* err);
consensus::BatchPolicy::FlushMode flush_policy_from_args(
    int argc, char** argv,
    consensus::BatchPolicy::FlushMode def = consensus::BatchPolicy::FlushMode::kFixed);

// `--sessions=N`: logical sessions the open-loop workload engine emulates
// (harness/workload.hpp), 1 <= N <= 1000000. Non-numeric or out-of-range
// exits 2.
bool try_sessions_from_args(int argc, char** argv, std::int64_t def,
                            std::int64_t* out, std::string* err);
std::int64_t sessions_from_args(int argc, char** argv, std::int64_t def = 1);

// `--target-rate=R`: aggregate open-loop arrival rate in ops/sec
// (WorkloadProfile::target_rate); 0 <= R <= 1e9, 0 = closed loop. Negative,
// non-numeric, or absurd values exit 2.
bool try_target_rate_from_args(int argc, char** argv, double def, double* out,
                               std::string* err);
double target_rate_from_args(int argc, char** argv, double def = 0.0);

// `--zipf=T`: zipfian skew theta for workload key choice
// (WorkloadProfile::zipf_theta); 0 <= T < 1 (0 = uniform; the YCSB-standard
// hot skew is 0.99). Out-of-range or non-numeric exits 2.
bool try_zipf_from_args(int argc, char** argv, double def, double* out,
                        std::string* err);
double zipf_from_args(int argc, char** argv, double def = 0.99);

// `--workload=A..F`: YCSB preset selecting the op mix
// (WorkloadProfile::preset). A single letter A-F; anything else exits 2.
bool try_workload_from_args(int argc, char** argv, char def, char* out,
                            std::string* err);
char workload_from_args(int argc, char** argv, char def = 'C');

// `--value-bytes=V`: record payload size in bytes (WorkloadProfile::
// value_bytes); 1 <= V <= 128 (a 16-byte command payload times at most 8
// fragments). Out-of-range or non-numeric exits 2.
bool try_value_bytes_from_args(int argc, char** argv, std::int32_t def,
                               std::int32_t* out, std::string* err);
std::int32_t value_bytes_from_args(int argc, char** argv, std::int32_t def = 8);

// `--net-port-base=P`: first listen port for the net backend's socket mesh
// (core::NetParams::port_base); node i listens on P + i. 0 <= P <= 65535,
// 0 = ephemeral ports (the registry map publishes them either way).
// Non-numeric or out-of-range exits 2.
bool try_net_port_base_from_args(int argc, char** argv, std::int32_t def,
                                 std::int32_t* out, std::string* err);
std::int32_t net_port_base_from_args(int argc, char** argv, std::int32_t def = 0);

// `--net-registry=<host:port>`: where the net backend's bootstrap registry
// binds (core::NetParams::registry). Must parse as host:port; anything else
// exits 2. Default "" = loopback with an ephemeral port.
bool try_net_registry_from_args(int argc, char** argv, const std::string& def,
                                std::string* out, std::string* err);
std::string net_registry_from_args(int argc, char** argv,
                                   const std::string& def = std::string());

// `--net-io-threads=N`: dedicated socket-flusher threads for the net
// backend (core::NetParams::io_threads); 0 <= N <= 64, 0 = every node
// thread flushes its own send rings. Non-numeric or out-of-range exits 2.
bool try_net_io_threads_from_args(int argc, char** argv, std::int32_t def,
                                  std::int32_t* out, std::string* err);
std::int32_t net_io_threads_from_args(int argc, char** argv, std::int32_t def = 0);

// The three net flags folded into one NetParams (defaults: loopback
// ephemeral registry, ephemeral node ports, self-flushing nodes).
core::NetParams net_params_from_args(int argc, char** argv);

// The usage text every harness-flag binary shares: enumerates ALL harness
// flags (--backend, --groups, --placement, --batch, --batch-flush-us,
// --flush-policy, --client-coalesce, --txn-mix, --read-mix, --lease-ms,
// --sessions, --target-rate, --zipf, --workload, --value-bytes,
// --net-port-base, --net-registry, --net-io-threads, --sweep-diff, --help)
// with their value shapes. The strict scanners print it and exit 0 when
// argv carries `--help`.
const char* usage_text();

// `base` plus whatever `--groups` / `--placement` say: the one-liner that
// makes any existing bench spec shardable.
ShardSpec shard_from_args(int argc, char** argv, const ClusterSpec& base);

// argv minus the harness's flags (and their space-form values, e.g.
// `--backend rt`). Any OTHER dash-prefixed argument prints an error and
// exits(2): for binaries whose entire flag surface is the harness's, a
// typo'd `--group=4` must not silently run the default configuration.
std::vector<std::string> positional_args(int argc, char** argv);

// The same strictness for binaries without positional arguments: exits(2)
// on any dash-prefixed argument that is not a harness flag, on a harness
// flag missing its value, and — when `consumed` is non-empty — on a
// harness flag this binary does not actually read (passing --groups to a
// bench that sweeps group counts itself must not silently no-op).
void require_harness_flags_only(int argc, char** argv,
                                std::initializer_list<const char*> consumed = {});

// How to drive the run. Virtual time under sim, wall time under rt and net.
struct RunPlan {
  // Excluded from committed/issued/message counts (latency histograms span
  // the whole run on every backend).
  Nanos warmup = 0;
  // Measurement window. A request quota (workload.requests_per_client > 0)
  // may end the run earlier; the result's `duration` reports the window
  // actually measured.
  Nanos duration = 1 * kSecond;
  // Safety net for rt and net (threads can't outrun a hung protocol the way
  // virtual time can); sim ignores it.
  Nanos max_wall = 30 * kSecond;
};

// Builds the cluster on the chosen backend, runs the plan, tears it down.
// The sharded overload merges per-group results; the ClusterSpec one is
// the single-group special case.
RunResult run(Backend b, const ShardSpec& shard, const RunPlan& plan);
RunResult run(Backend b, const ClusterSpec& spec, const RunPlan& plan);

// ---- Backend sweep diffing (--sweep-diff) ----
//
// Runs the SAME spec on a list of backends and diffs the RunResults by
// SHAPE, not absolute numbers: virtual-time throughput, oversubscribed
// wall clocks, and socket round trips are incomparable, but consistency,
// liveness, quota completion, and order-of-magnitude message amortization
// must agree. `mismatches` is empty when the shapes line up; each entry is
// a human-readable complaint naming the offending backend.
struct BackendRun {
  Backend backend = Backend::kSim;
  RunResult result;
};

struct SweepDiffN {
  std::vector<BackendRun> runs;  // same order as the requested backends
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

// Each backend gets its canonical timeout profile applied before running;
// msgs/op is compared pairwise against the FIRST backend in the list (by
// convention sim, the deterministic reference). `backends` must be
// non-empty and duplicate-free.
SweepDiffN sweep_diff(const std::vector<Backend>& backends, const ShardSpec& shard,
                      const RunPlan& plan);

// True when argv carries `--sweep-diff` (a valueless flag, recognized by
// the strict scanners; a binary that reads it lists it in its `consumed`
// set like any other harness flag). `bench/fig_batching_amortization`
// honors it by appending a sim-vs-rt shape diff of a representative spec;
// `bench/sweep_diff` is the standalone CLI for arbitrary specs.
bool sweep_diff_from_args(int argc, char** argv);

}  // namespace ci::harness
