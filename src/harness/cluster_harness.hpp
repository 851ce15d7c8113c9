// Backend-agnostic cluster harness: run one ClusterSpec (or a sharded
// ShardSpec) on any backend and get one RunResult back. This is the
// layer benches, examples, and the parity tests program against;
// `--backend={sim,rt,net}`, `--groups=N` and `--placement=...` select the
// runtime and the sharding layout at the command line.
#pragma once

#include <cstdint>
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

// ---- Command-line flags ----
//
// Every bench and example reads its flags through one table (FlagSpec in
// cluster_harness.cpp): one row per flag gives its name, how its value
// parses, its bounds and its --help line. A binary names the flags it
// reads; anything else on its command line exits 2.
enum class Flag {
  kBackend,         // --backend=sim|rt|net
  kGroups,          // --groups=N, consensus groups to shard over
  kPlacement,       // --placement=group-major|interleaved|colocated
  kBatch,           // --batch=N -> batch.max_commands
  kBatchFlushUs,    // --batch-flush-us=T -> batch.flush_after
  kFlushPolicy,     // --flush-policy=fixed|adaptive -> batch.flush_mode
  kClientCoalesce,  // --client-coalesce=N
  kTxnMix,          // --txn-mix=P
  kReadMix,         // --read-mix=P
  kLeaseMs,         // --lease-ms=T -> lease
  kSessions,        // --sessions=N
  kNetPortBase,     // --net-port-base=P -> net.port_base
  kNetRegistry,     // --net-registry=host:port -> net.registry
  kNetIoThreads,    // --net-io-threads=N -> net.io_threads
  kSweepDiff,       // --sweep-diff (valueless)
};

// What the flags set. A binary writes its own defaults here before parsing;
// the parser overwrites only what argv names, and --help prints these
// values as the defaults.
struct Flags {
  Backend backend = Backend::kSim;
  std::int32_t groups = 1;
  Placement placement = Placement::kGroupMajor;
  consensus::BatchPolicy batch{};
  // Commands per client-side kClientCmdBatch frame (WorkloadSpec::
  // client_coalesce); 1 = one frame per command.
  std::int32_t client_coalesce = 1;
  // Fractions of workload operations issued as cross-shard transactions
  // and as reads.
  double txn_mix = 0.0;
  double read_mix = 0.0;
  // Leader lease (TimeoutProfile::lease); 0 = off, reads replicate.
  Nanos lease = 0;
  // Logical sessions the open-loop workload engine emulates.
  std::int64_t sessions = 1;
  core::NetParams net{};
  // Also run the spec on the other backends and diff the result shapes.
  bool sweep_diff = false;
  // Non-flag arguments in order; only binaries that declare positionals
  // accept any.
  std::vector<std::string> positional{};
};

enum class Parsed { kOk, kHelp, kError };

// Walks argv once against the rows of `reads`, in `--name=value` or
// `--name value` form (the last occurrence wins), and fills *out. kError
// puts the message in *text: a flag outside `reads`, a missing, malformed or
// out-of-range value, or a positional argument when `positional` is null.
// kHelp (argv carries --help) puts the binary's usage in *text: its rows of
// the table with *out's values as defaults. `positional` describes the
// positional arguments for that usage line.
Parsed try_parse_flags(int argc, char** argv, std::initializer_list<Flag> reads, Flags* out,
                       std::string* text, const char* positional = nullptr);

// The same for a CLI binary: prints the usage and exits 0 on --help, prints
// the error and exits 2 on a bad command line.
void parse_flags(int argc, char** argv, std::initializer_list<Flag> reads, Flags* out,
                 const char* positional = nullptr);

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

}  // namespace ci::harness
