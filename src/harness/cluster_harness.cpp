#include "harness/cluster_harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <variant>

#include "common/check.hpp"
#include "core/cluster.hpp"
#include "net/endpoint.hpp"

namespace ci::harness {
namespace {

using FlushMode = consensus::BatchPolicy::FlushMode;

// Where a flag's value lands in Flags. Its type says how the value parses:
// an integer in [lo, hi] times `scale`, a real in [lo, hi], one of the
// '|'-separated choices in `value` (in enum order), a host:port endpoint,
// or nothing at all for a bool switch.
using Slot = std::variant<std::int32_t*, std::int64_t*, std::uint16_t*, double*, std::string*,
                          bool*, Backend*, Placement*, FlushMode*>;

struct FlagSpec {
  Flag flag;
  const char* name;
  const char* value;  // the value's letter in usage and errors, the choices, or "" for a switch
  double lo, hi;      // number bounds, inclusive; lo == hi for non-numbers
  Nanos scale;        // field = value * scale (us and ms into Nanos)
  const char* what;   // the error's name for a bad value
  Slot (*slot)(Flags&);
  const char* help;
};

// An hour bounds both timers, far beyond any sane value, so the scaling
// multiply cannot overflow and a clamped strtoll cannot sneak through.
constexpr double kHourUs = 3600.0 * 1000 * 1000;
constexpr double kHourMs = 3600.0 * 1000;
constexpr double kNoMax = std::numeric_limits<std::int32_t>::max();

// clang-format off
constexpr FlagSpec kFlags[] = {
  {Flag::kBackend, "--backend", "sim|rt|net", 0, 0, 1, "unknown backend",
   [](Flags& f) -> Slot { return &f.backend; }, "runtime: simulator, pinned threads or TCP mesh"},
  {Flag::kGroups, "--groups", "N", 1, kNoMax, 1, "bad group count",
   [](Flags& f) -> Slot { return &f.groups; }, "consensus groups to shard over"},
  {Flag::kPlacement, "--placement", "group-major|interleaved|colocated", 0, 0, 1,
   "unknown placement", [](Flags& f) -> Slot { return &f.placement; },
   "how groups map onto transport nodes"},
  {Flag::kBatch, "--batch", "N", 1, consensus::kMaxCommandsPerBatch, 1, "bad batch size",
   [](Flags& f) -> Slot { return &f.batch.max_commands; }, "commands per agreement instance"},
  {Flag::kBatchFlushUs, "--batch-flush-us", "T", 0, kHourUs, kMicrosecond, "bad flush timeout",
   [](Flags& f) -> Slot { return &f.batch.flush_after; }, "microseconds a partial batch waits"},
  {Flag::kFlushPolicy, "--flush-policy", "fixed|adaptive", 0, 0, 1, "unknown flush policy",
   [](Flags& f) -> Slot { return &f.batch.flush_mode; },
   "hold a partial batch the full wait, or flush early when arrivals look sparse"},
  {Flag::kClientCoalesce, "--client-coalesce", "N", 1, consensus::kMaxClientBatchCommands, 1,
   "bad coalesce window", [](Flags& f) -> Slot { return &f.client_coalesce; },
   "commands per client-side kClientCmdBatch frame"},
  {Flag::kTxnMix, "--txn-mix", "P", 0, 1, 1, "bad txn mix",
   [](Flags& f) -> Slot { return &f.txn_mix; }, "fraction of ops issued as cross-shard txns"},
  {Flag::kReadMix, "--read-mix", "P", 0, 1, 1, "bad read mix",
   [](Flags& f) -> Slot { return &f.read_mix; }, "fraction of workload ops issued as reads"},
  {Flag::kLeaseMs, "--lease-ms", "T", 0, kHourMs, kMillisecond, "bad lease duration",
   [](Flags& f) -> Slot { return &f.lease; }, "leader lease in ms; 0 = off, reads replicate"},
  {Flag::kSessions, "--sessions", "N", 1, 1000000, 1, "bad session count",
   [](Flags& f) -> Slot { return &f.sessions; }, "logical open-loop sessions to emulate"},
  {Flag::kNetPortBase, "--net-port-base", "P", 0, 65535, 1, "bad net port base",
   [](Flags& f) -> Slot { return &f.net.port_base; }, "net: node i listens on P + i; 0 = any"},
  {Flag::kNetRegistry, "--net-registry", "host:port", 0, 0, 1, "bad registry endpoint",
   [](Flags& f) -> Slot { return &f.net.registry; },
   "net: where the bootstrap registry binds; empty = loopback, any port"},
  {Flag::kNetIoThreads, "--net-io-threads", "N", 0, 64, 1, "bad io-thread count",
   [](Flags& f) -> Slot { return &f.net.io_threads; },
   "net: socket-flusher threads; 0 = nodes flush their own"},
  {Flag::kSweepDiff, "--sweep-diff", "", 0, 0, 1, "",
   [](Flags& f) -> Slot { return &f.sweep_diff; },
   "also run the spec on the other backends and diff the result shapes"},
};
// clang-format on

// Index of `s` among the '|'-separated `choices`, or -1.
int choice_index(const char* choices, const char* s) {
  const std::size_t n = std::strlen(s);
  for (int i = 0;; ++i) {
    const std::size_t len = std::strcspn(choices, "|");
    if (n > 0 && len == n && std::strncmp(choices, s, n) == 0) return i;
    if (choices[len] == '\0') return -1;
    choices += len + 1;
  }
}

// "1 <= N <= 64" for a number, "" for anything else.
std::string bounds(const FlagSpec& spec) {
  char b[96] = "";
  if (spec.hi == kNoMax) {
    std::snprintf(b, sizeof b, "%s >= %.10g", spec.value, spec.lo);
  } else if (spec.lo != spec.hi) {
    std::snprintf(b, sizeof b, "%.10g <= %s <= %.10g", spec.lo, spec.value, spec.hi);
  }
  return b;
}

// "--batch=N": the flag as usage lines write it.
std::string form(const FlagSpec& spec) {
  return std::string(spec.name) + (*spec.value == '\0' ? "" : "=") + spec.value;
}

// "--batch=N, 1 <= N <= 64": what an error says the flag expects.
std::string expected(const FlagSpec& spec) {
  const std::string b = bounds(spec);
  return form(spec) + (b.empty() ? "" : ", " + b);
}

// Parses `value` for `spec` into its slot in *out; false leaves *out alone.
bool store(const FlagSpec& spec, const char* value, Flags* out) {
  return std::visit(
      [&](auto* field) {
        using T = std::remove_pointer_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          *field = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          net::Endpoint ep;
          if (!net::parse_endpoint(value, &ep)) return false;
          *field = value;
        } else if constexpr (std::is_enum_v<T>) {
          const int i = choice_index(spec.value, value);
          if (i < 0) return false;
          *field = static_cast<T>(i);
        } else if constexpr (std::is_same_v<T, double>) {
          char* end = nullptr;
          const double p = std::strtod(value, &end);
          if (end == value || *end != '\0' || !(p >= spec.lo) || !(p <= spec.hi)) return false;
          *field = p;
        } else {
          char* end = nullptr;
          const long long n = std::strtoll(value, &end, 10);
          if (end == value || *end != '\0' || n < spec.lo || n > spec.hi) return false;
          *field = static_cast<T>(n * spec.scale);
        }
        return true;
      },
      spec.slot(*out));
}

// The field's current value as --help shows it; "" prints no default.
std::string shown(const FlagSpec& spec, Flags* f) {
  return std::visit(
      [&](auto* field) -> std::string {
        using T = std::remove_pointer_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          return "";
        } else if constexpr (std::is_same_v<T, std::string>) {
          return *field;
        } else if constexpr (std::is_enum_v<T>) {
          const char* c = spec.value;
          for (int i = static_cast<int>(*field); i > 0; --i) c += std::strcspn(c, "|") + 1;
          return std::string(c, std::strcspn(c, "|"));
        } else {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.15g", static_cast<double>(*field) / spec.scale);
          return buf;
        }
      },
      spec.slot(*f));
}

bool reads_flag(std::initializer_list<Flag> reads, Flag flag) {
  return std::find(reads.begin(), reads.end(), flag) != reads.end();
}

std::string usage(const char* prog, std::initializer_list<Flag> reads, Flags defaults,
                  const char* positional) {
  std::string u = std::string("usage: ") + prog + (reads.size() > 0 ? " [flags]" : "") +
                  (positional != nullptr ? std::string(" ") + positional : "") + "\n";
  const auto line = [&u](const std::string& lhs, const std::string& text) {
    constexpr std::size_t kColumn = 28;
    u += "  " + lhs;
    u += lhs.size() < kColumn ? std::string(kColumn - lhs.size(), ' ')
                              : "\n" + std::string(kColumn + 2, ' ');
    u += text + "\n";
  };
  for (const FlagSpec& spec : kFlags) {
    if (!reads_flag(reads, spec.flag)) continue;
    std::string notes = bounds(spec);
    const std::string def = shown(spec, &defaults);
    if (!def.empty()) notes += (notes.empty() ? "default " : "; default ") + def;
    line(form(spec), spec.help + (notes.empty() ? "" : " (" + notes + ")"));
  }
  line("--help", "print this text and exit");
  if (reads.size() > 0) u += "Flags take --name=value or --name value form; the last one wins.\n";
  return u;
}

// The FlagSpec row `arg` invokes. A longer flag sharing a row's prefix
// (--groupsize) matches none, and a switch takes no `=value`.
const FlagSpec* match(const char* arg) {
  for (const FlagSpec& spec : kFlags) {
    const std::size_t n = std::strlen(spec.name);
    if (std::strncmp(arg, spec.name, n) != 0) continue;
    if (arg[n] == '\0' || (arg[n] == '=' && *spec.value != '\0')) return &spec;
  }
  return nullptr;
}

}  // namespace

bool parse_backend(const char* s, Backend* out) {
  for (const Backend b : {Backend::kSim, Backend::kRt, Backend::kNet}) {
    if (std::strcmp(s, core::backend_name(b)) != 0) continue;
    *out = b;
    return true;
  }
  return false;
}

Parsed try_parse_flags(int argc, char** argv, std::initializer_list<Flag> reads, Flags* out,
                       std::string* text, const char* positional) {
  const char* prog = argc > 0 ? argv[0] : "";
  if (const char* slash = std::strrchr(prog, '/')) prog = slash + 1;
  const Flags defaults = *out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (positional == nullptr) {
        *text = std::string("unexpected argument '") + arg + "' (" + prog +
                " takes no positional arguments)";
        return Parsed::kError;
      }
      out->positional.emplace_back(arg);
      continue;
    }
    if (std::strcmp(arg, "--help") == 0) {
      *text = usage(prog, reads, defaults, positional);
      return Parsed::kHelp;
    }
    const FlagSpec* spec = match(arg);
    if (spec == nullptr) {
      *text = std::string("unknown flag '") + arg + "' (" + prog + " reads:";
      for (const FlagSpec& s : kFlags) {
        if (reads_flag(reads, s.flag)) *text += std::string(" ") + s.name + ",";
      }
      *text += " --help)";
      return Parsed::kError;
    }
    if (!reads_flag(reads, spec->flag)) {
      *text = std::string("flag '") + spec->name + "' is not used by this binary";
      return Parsed::kError;
    }
    const char* value = arg + std::strlen(spec->name);  // "=value", or "" in the space form
    if (*value == '=') {
      ++value;
    } else if (*spec->value != '\0') {
      if (i + 1 >= argc) {
        *text = std::string(spec->name) + " requires a value (expected " + expected(*spec) + ")";
        return Parsed::kError;
      }
      value = argv[++i];
    }
    if (!store(*spec, value, out)) {
      *text = std::string(spec->what) + " '" + value + "' (expected " + expected(*spec) + ")";
      return Parsed::kError;
    }
  }
  return Parsed::kOk;
}

void parse_flags(int argc, char** argv, std::initializer_list<Flag> reads, Flags* out,
                 const char* positional) {
  std::string text;
  switch (try_parse_flags(argc, argv, reads, out, &text, positional)) {
    case Parsed::kOk:
      return;
    case Parsed::kHelp:
      std::fputs(text.c_str(), stdout);
      std::exit(0);
    case Parsed::kError:
      std::fprintf(stderr, "%s\n", text.c_str());
      std::exit(2);
  }
}

RunResult run(Backend b, const ShardSpec& shard, const RunPlan& plan) {
  core::Cluster c(b, shard);
  c.start();
  const Nanos t0 = c.now();
  // What the warmup did is excluded from the counts. On a real clock with
  // no warmup there is nothing to exclude: a snapshot taken after start()
  // races the running clients and would drop their first commits.
  RunResult warm;
  if (plan.warmup > 0 || !c.threaded()) {
    c.run_until(t0 + plan.warmup);
    warm.committed = c.total_committed();
    warm.issued = c.total_issued();
    warm.local_reads = c.sharded().total_local_reads();
    warm.total_messages = c.total_messages();
    warm.total_bytes = c.total_bytes();
  }
  const Nanos measure_start = c.now();
  // max_wall bounds real clocks only: virtual time cannot hang.
  const Nanos span = plan.warmup + plan.duration;
  c.run_until(t0 + (c.threaded() ? std::min(span, plan.max_wall) : span));
  const Nanos measured = std::max<Nanos>(c.now() - measure_start, 1);
  c.stop();
  RunResult res = c.collect();
  res.committed -= warm.committed;
  res.issued -= warm.issued;
  res.local_reads -= warm.local_reads;
  res.total_messages -= warm.total_messages;
  res.total_bytes -= warm.total_bytes;
  res.duration = measured;
  return res;
}

RunResult run(Backend b, const ClusterSpec& spec, const RunPlan& plan) {
  return run(b, ShardSpec(spec), plan);
}

namespace {

// One formatted complaint; keeps the shape checks below readable.
void mismatch(std::vector<std::string>* out, const std::string& what) {
  out->push_back(what);
}

}  // namespace

SweepDiffN sweep_diff(const std::vector<Backend>& backends, const ShardSpec& shard,
                      const RunPlan& plan) {
  CI_CHECK_MSG(!backends.empty(), "sweep_diff needs at least one backend");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t j = i + 1; j < backends.size(); ++j) {
      CI_CHECK_MSG(backends[i] != backends[j], "duplicate backend in sweep_diff list");
    }
  }

  SweepDiffN d;
  // One logical spec, one runtime per requested backend. Each side gets its
  // backend's timeout profile (virtual microsecond timers vs real
  // oversubscribed threads/sockets) — the same adaptation every
  // cross-backend comparison in the repo makes.
  for (const Backend b : backends) {
    ShardSpec side = shard;
    side.base.apply_backend_profile(b);
    d.runs.push_back({b, run(b, side, plan)});
  }
  auto* m = &d.mismatches;

  const std::uint64_t per_client = shard.base.workload.requests_per_client;
  for (const BackendRun& r : d.runs) {
    const std::string who = core::backend_name(r.backend);

    // Safety shape: agreement must hold on every backend, full stop.
    if (!r.result.consistent) {
      mismatch(m, who + " run inconsistent (cross-replica disagreement)");
    }

    // Liveness shape: every backend makes progress on the same spec.
    if (r.result.committed == 0) mismatch(m, who + " committed nothing");

    // Quota shape: a closed-loop request quota must complete on every side —
    // the one throughput-independent count the backends can agree on exactly.
    if (per_client > 0) {
      const std::uint64_t quota = per_client *
                                  static_cast<std::uint64_t>(shard.base.client_count()) *
                                  static_cast<std::uint64_t>(shard.groups);
      if (r.result.committed != quota) {
        mismatch(m, who + " committed " + std::to_string(r.result.committed) +
                        " of a " + std::to_string(quota) + "-request quota");
      }
    }
  }

  // Amortization shape: messages per committed op is a structural property
  // of the protocol/batch configuration, not of the clock — every backend
  // must land within an order of magnitude of the FIRST one (by convention
  // sim, the deterministic reference; rt/net retries under an oversubscribed
  // machine account for the slack — trust shapes, not numbers).
  const BackendRun& ref = d.runs.front();
  if (ref.result.committed > 0) {
    const double ref_mpo = static_cast<double>(ref.result.total_messages) /
                           static_cast<double>(ref.result.committed);
    for (std::size_t i = 1; i < d.runs.size(); ++i) {
      const BackendRun& r = d.runs[i];
      if (r.result.committed == 0) continue;
      const double mpo = static_cast<double>(r.result.total_messages) /
                         static_cast<double>(r.result.committed);
      if (ref_mpo > 0 && mpo > 0 && (mpo / ref_mpo > 10.0 || ref_mpo / mpo > 10.0)) {
        mismatch(m, std::string("msgs/op diverged: ") + core::backend_name(ref.backend) +
                        " " + std::to_string(ref_mpo) + " vs " +
                        core::backend_name(r.backend) + " " + std::to_string(mpo));
      }
    }
  }
  return d;
}

}  // namespace ci::harness
