// The benchmark driver: runs ONE named workload against the repository's
// public client API (client::ServiceClient + harness::ArrivalGen), checks
// what the replicas hold against what the clients were told, and prints one
// JSON line of results. run.py builds this binary and wraps its output in
// the benchmark's result format; BENCHMARK.md explains every workload and
// metric.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE] [--corrupt-replica]
//
// Clocks: the sim workloads report latency and throughput in VIRTUAL time
// (the many-core cost model), so a seed repeats them exactly; the net
// workload reports wall time. Every phase's length scales with --seconds.
//
// --trace 1 additionally records spans around the public calls the driver
// makes (kept in memory, written to --spans at exit), runs the layer
// microbenchmarks, and prints the per-layer metrics instead of the
// end-to-end ones. --corrupt-replica damages one replica's state machine
// after the drain; the output check must then fail (a self-test hook).
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/service_client.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "consensus/batch.hpp"
#include "consensus/command_pool.hpp"
#include "consensus/multi_paxos.hpp"
#include "consensus/state_machine.hpp"
#include "consensus/wire_codec.hpp"
#include "core/one_paxos.hpp"
#include "harness/workload.hpp"
#include "net/framing.hpp"
#include "net/send_ring.hpp"

namespace {

using namespace ci;
using client::ServiceClient;
using client::Session;
using client::SubmitHandle;
using consensus::Op;
using core::Backend;
using consensus::GroupId;

// ---------------------------------------------------------------- workloads

struct WorkloadSpec {
  const char* name;
  Backend backend;
  core::Protocol protocol;
  std::int32_t groups;
  bool leases;
  double update;  // fraction of single-key updates
  double txn;     // fraction of two-key cross-shard transactions (rest: reads)
  // Open-loop ladder, ascending, in ops/s. Entry 0 is the "low" point and
  // entry 1 the "mid" point: frozen absolute rates, about 30% and 60-70% of
  // the peak measured when the benchmark was defined.
  std::vector<double> ladder;
  double p99_limit_us;  // the slo_ops_s latency limit
  // Phase lengths per 10 s of --seconds, in the workload clock: the peak,
  // the low and mid points, and each higher rung.
  Nanos peak_len;
  Nanos point_len;
  Nanos rung_len;
  std::int32_t setup_reps;
  bool slow_leader;  // append the slow-leader phase
};

constexpr std::uint64_t kKeySpace = 20000;
constexpr std::int64_t kLogicalSessions = 1000;
constexpr std::int32_t kPeakDepth = 64;  // closed-loop ops in flight
constexpr Nanos kFlushBudget = 200 * kMicrosecond;
constexpr std::uint32_t kSlowFactor = 100;

// The three benchmark workloads, then slow-leader variants of the two sim
// ones. The variants are not in BENCHMARK.json: today one ends in a failed
// output check and the other in a transaction that never commits
// (BENCHMARK.md, "Known defects").
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> v = {
        {"sim-1paxos-ycsba", Backend::kSim, core::Protocol::kOnePaxos, 1, false, 0.5, 0.0,
         {260000, 600000, 700000, 780000}, 500, 300 * kMillisecond, kSecond,
         300 * kMillisecond, 3, false},
        {"sim-4group-txn", Backend::kSim, core::Protocol::kMultiPaxos, 4, true, 0.05, 0.05,
         {21000, 45000, 52000, 65000}, 2000, 2 * kSecond, 25 * kSecond, 2500 * kMillisecond,
         3, false},
        {"net-mpaxos-ycsba", Backend::kNet, core::Protocol::kMultiPaxos, 1, false, 0.5, 0.0,
         {14000, 32000, 38000, 44000}, 5000, 3 * kSecond, 3 * kSecond, 3 * kSecond, 9,
         false},
    };
    for (const std::size_t base : {0, 1}) {
      WorkloadSpec f = v[base];
      f.name = base == 0 ? "sim-1paxos-slowleader" : "sim-4group-slowleader";
      f.slow_leader = true;
      v.push_back(f);
    }
    return v;
  }();
  return kAll;
}

ServiceClient::Options make_options(const WorkloadSpec& w, std::uint64_t seed,
                                    std::int32_t replicas) {
  ServiceClient::Options o;
  o.backend = w.backend;
  o.groups = w.groups;
  o.num_sessions = 1;  // one conduit carries every logical session
  o.spec.protocol = w.protocol;
  o.spec.num_replicas = replicas;
  if (w.backend == Backend::kSim) {
    o.spec.apply(core::TimeoutProfile::many_core());
    o.spec.sim.model = core::LatencyModel::many_core();
  }
  o.spec.workload.request_timeout = 10 * kMillisecond;  // the real-thread default
  if (w.leases) {
    o.spec.engine.lease_duration = 4 * kMillisecond;
    o.spec.engine.lease_epsilon = 400 * kMicrosecond;
  }
  o.spec.engine.batch.max_commands = 64;
  o.spec.engine.batch.flush_after = kFlushBudget;
  o.spec.engine.batch.flush_mode = consensus::BatchPolicy::FlushMode::kAdaptive;
  o.spec.seed = seed;
  return o;
}

harness::WorkloadProfile make_profile(const WorkloadSpec& w, std::uint64_t seed,
                                      double rate) {
  harness::WorkloadProfile p;
  p.sessions = kLogicalSessions;
  p.key_space = kKeySpace;
  p.zipf_theta = 0.99;
  p.value_bytes = 8;
  p.mix.update = w.update;
  p.mix.txn = w.txn;
  p.target_rate = rate;
  p.seed = seed;
  return p;
}

// ------------------------------------------------------------------ tracing

enum SpanName : std::uint8_t {
  kSpanOp,
  kSpanGen,
  kSpanSubmit,
  kSpanTxnCommit,
  kSpanPump,
  kSpanNames
};
const char* const kSpanNameText[kSpanNames] = {"op", "harness.gen", "client.submit",
                                               "client.txn_commit", "sim.pump"};

// One span: wall-clock start/end (steady clock) plus the workload clock
// (virtual time on sim, wall time on net) so request-path spans can be read
// in the unit the end-to-end metrics use.
struct Span {
  std::uint64_t req;
  std::int32_t parent;  // index into the span vector, -1 = root
  SpanName name;
  Nanos wall_start, wall_end;
  Nanos clock_start, clock_end;
};

// In-memory span store. Every kSampleEvery-th request is traced; all of its
// spans share the request id. Written out once, at exit.
class Tracer {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;

  void enable() { on_ = true; }
  bool sampled(std::uint64_t req) const { return on_ && req % kSampleEvery == 0; }

  std::int32_t open(SpanName n, std::uint64_t req, std::int32_t parent, Nanos clock) {
    spans_.push_back(Span{req, parent, n, now_nanos(), 0, clock, 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t idx, Nanos clock) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.wall_end = now_nanos();
    s.clock_end = clock;
  }

  // Mean wall (or workload-clock) duration of the spans named `n`, in ns.
  double mean_ns(SpanName n, bool workload_clock) const {
    double sum = 0;
    std::uint64_t count = 0;
    for (const Span& s : spans_) {
      if (s.name != n || s.wall_end == 0) continue;
      sum += static_cast<double>(workload_clock ? s.clock_end - s.clock_start
                                                : s.wall_end - s.wall_start);
      ++count;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  // Tab-separated: req, span index, parent index, name, wall start, wall end,
  // clock start, clock end (the format summarize_spans.py reads).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# req\tidx\tparent\tname\twall_start\twall_end\tclock_start\tclock_end\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.wall_end == 0) continue;  // never closed (op failed at the deadline)
      std::fprintf(f, "%" PRIu64 "\t%zu\t%d\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\t%" PRId64 "\n",
                   s.req, i, s.parent, kSpanNameText[s.name], s.wall_start, s.wall_end,
                   s.clock_start, s.clock_end);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ measurement

// What the driver knows about one key: the newest write issued to it, and
// whether the replicas' final value must equal that write's value.
struct KeyState {
  std::uint64_t value = 0;
  std::uint64_t seq = 0;  // issue sequence number of the newest write
  std::int32_t inflight = 0;
  bool clean = false;   // the newest write overlapped no older write
  bool acked = false;   // ...and its commit was acknowledged
  bool by_txn = false;  // ...by a committed transaction
  std::uint64_t txn_peer = 0;       // that transaction's other key
  std::uint64_t aborted_value = 0;  // an aborted txn's value (must not show)
};

struct Flight {
  std::size_t rec = 0;
  Nanos due = 0;
  SubmitHandle h;
  bool write = false;
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  std::int32_t span = -1;
};

// Exact percentile of sorted samples (linear interpolation), in microseconds.
double percentile_us(const std::vector<Nanos>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(sorted[lo]) * (1 - frac) + static_cast<double>(sorted[hi]) * frac) /
         1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e9 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e3;
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// One measured phase, in the workload clock. The driver keeps 8 bytes per
// op, reserved up front from the phase's expected rate, so its own share of
// peak_rss_mb stays small and does not double at a vector's growth.
struct Phase {
  Nanos start = 0;
  Nanos len = 0;
  // Per op, in issue order until sorted: scheduled arrival (closed loop: the
  // issue instant) to reply. An op that never replied is charged up to the
  // drain deadline, so timeouts make latency worse, not better.
  std::vector<Nanos> lat;
  std::vector<Nanos> due;  // per op, only while the runner watches a fault
  std::int64_t failed = 0;
  std::int64_t late = 0;  // ops that replied after start + len, or never
  Nanos last_done = 0;

  std::int64_t ops() const { return static_cast<std::int64_t>(lat.size()); }
  // Sorts `lat` in place for percentile_us (issue order is lost).
  const std::vector<Nanos>& sorted() {
    std::sort(lat.begin(), lat.end());
    return lat;
  }
};

// Drives one ServiceClient through closed- and open-loop phases with the
// public Session API, recording every op's latency and what it wrote. (The
// harness's own run_open_loop keeps only a latency histogram; the output
// check needs every write, and the fault metrics every op's due time.)
class Runner {
 public:
  Runner(const WorkloadSpec& w, ServiceClient& svc, Tracer& tracer)
      : w_(w), svc_(svc), tracer_(tracer), keys_(kKeySpace),
        leaders_(static_cast<std::size_t>(svc.num_groups()), consensus::kNoNode) {}

  bool sim() const { return w_.backend == Backend::kSim; }

  Nanos now() const { return sim() ? svc_.sim_now() : now_nanos(); }

  // Closed loop: keep kPeakDepth ops in flight for `len` of workload time.
  // Its storage is reserved for the top ladder rate with some headroom.
  Phase closed(harness::ArrivalGen& gen, Nanos len) {
    begin(len, 1.25 * w_.ladder.back());
    const Nanos until = cur_.start + len;
    while (now() < until) {
      while (static_cast<std::int32_t>(active_.size()) < kPeakDepth && now() < until) {
        const Nanos t = now();
        issue(next(gen), t);
      }
      wait_progress();
      reap();
    }
    drain();
    return std::move(cur_);
  }

  // Open loop: the generator's Poisson schedule for `len`. `at_fault` runs
  // once, when the schedule first reaches `fault_at` (offset from start).
  template <typename FaultFn>
  Phase open(harness::ArrivalGen& gen, Nanos len, Nanos fault_at, FaultFn&& at_fault) {
    begin(len, gen.profile().target_rate);
    bool faulted = false;
    for (;;) {
      const harness::Arrival a = next(gen);
      if (a.at >= len) break;
      if (!faulted && a.at >= fault_at) {
        faulted = true;
        at_fault();
      }
      const Nanos due = cur_.start + a.at;
      advance_to(due);
      reap();
      issue(a, due);
      if (watching_ && (ops_ & 255) == 0) watch_leaders();
    }
    drain();
    return std::move(cur_);
  }

  Phase open(harness::ArrivalGen& gen, Nanos len) {
    return open(gen, len, len, [] {});
  }

  // Fault watch (the slow-leader phase only): keeps every op's due time in
  // Phase::due and counts changes of any group's believed leader.
  void watch_fault(bool on) {
    watching_ = on;
    if (on) watch_leaders();
  }

  // Records issue lateness (issue time - due time) of the ops that follow.
  void record_lags(bool on) { recording_lags_ = on; }
  std::vector<Nanos>& lags() { return lags_; }

  // Lets followers catch up after the last phase (no client traffic).
  void settle() {
    if (sim()) {
      svc_.sim_run_until(svc_.sim_now() + 50 * kMillisecond);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }

  const std::vector<KeyState>& keys() const { return keys_; }
  std::int64_t leader_changes() const { return leader_changes_; }
  std::int64_t txns() const { return txns_; }
  std::int64_t txn_aborts() const { return txn_aborts_; }
  std::int64_t reads() const { return reads_; }

 private:
  void begin(Nanos len, double rate) {
    cur_ = Phase{};
    cur_.start = now();
    cur_.len = len;
    const auto expected = static_cast<std::size_t>(rate * static_cast<double>(len) / 1e9);
    cur_.lat.reserve(expected + expected / 20 + 1024);
    if (watching_) cur_.due.reserve(cur_.lat.capacity());
  }

  harness::Arrival next(harness::ArrivalGen& gen) {
    const bool traced = tracer_.sampled(ops_);
    const std::int32_t span = traced ? tracer_.open(kSpanGen, ops_, -1, 0) : -1;
    harness::Arrival a = gen.next();
    if (traced) tracer_.close(span, 0);
    return a;
  }

  // Counts changes of any group's believed leader (sim only: the call reads
  // engine state that node threads own on net).
  void watch_leaders() {
    if (!sim()) return;
    for (GroupId g = 0; g < svc_.num_groups(); ++g) {
      const consensus::NodeId l = svc_.believed_leader(g);
      consensus::NodeId& known = leaders_[static_cast<std::size_t>(g)];
      if (known != consensus::kNoNode && l != known) ++leader_changes_;
      known = l;
    }
  }

  void advance_to(Nanos due) {
    if (sim()) {
      const bool traced = tracer_.sampled(ops_);
      const std::int32_t span = traced ? tracer_.open(kSpanPump, ops_, -1, now()) : -1;
      svc_.sim_run_until(due);
      if (traced) tracer_.close(span, now());
      return;
    }
    // Sleep, never spin: a spinning driver takes a core from the node
    // threads and on a 4-core machine that showed up as multi-millisecond
    // p99 stalls. Oversleeping issues an op late, and the latency charged
    // from its due time includes that lateness.
    const Nanos left = due - now_nanos();
    if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  }

  // Waits until at least one in-flight op can have made progress.
  void wait_progress() {
    if (active_.empty()) return;
    if (sim()) {
      // Small virtual steps keep the closed loop's refill prompt (a
      // SubmitHandle::wait would pump 50 us slices).
      svc_.sim_run_until(svc_.sim_now() + 2 * kMicrosecond);
      return;
    }
    active_.front().h.wait();
  }

  // Finishes every in-flight op, or gives up on it at the deadline: it then
  // counts as failed, is charged the wait up to the deadline, and its key
  // proves nothing.
  void drain() {
    const Nanos deadline = now() + (sim() ? 2 * kSecond : 10 * kSecond);
    while (!active_.empty() && now() < deadline) {
      if (sim()) {
        svc_.sim_run_until(svc_.sim_now() + 20 * kMicrosecond);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      reap();
      if (watching_) watch_leaders();
    }
    const Nanos gave_up = now();
    for (Flight& f : active_) {
      finish(f.rec, f.due, gave_up, false);
      if (f.write) {
        keys_[f.key].clean = false;
        keys_[f.key].inflight--;
      }
    }
    active_.clear();
  }

  // Records the outcome of the phase's op `idx`.
  void finish(std::size_t idx, Nanos due, Nanos done, bool ok) {
    cur_.lat[idx] = done - due;
    if (!ok) ++cur_.failed;
    if (done > cur_.start + cur_.len) ++cur_.late;
    cur_.last_done = std::max(cur_.last_done, done);
  }

  void write_issued(std::uint64_t key, std::uint64_t value, std::uint64_t seq) {
    KeyState& k = keys_[key];
    k.clean = k.inflight == 0;
    k.inflight++;
    k.value = value;
    k.seq = seq;
    k.acked = false;
    k.by_txn = false;
  }

  void issue(const harness::Arrival& a, Nanos due) {
    const std::size_t idx = cur_.lat.size();
    const std::uint64_t seq = ++ops_;
    const bool traced = tracer_.sampled(seq - 1);
    const Nanos issued = now();
    cur_.lat.push_back(0);
    if (watching_) cur_.due.push_back(due);
    if (recording_lags_) lags_.push_back(issued - due);
    const std::int32_t op_span = traced ? tracer_.open(kSpanOp, seq - 1, -1, issued) : -1;
    Session& s = svc_.session(0);
    if (a.op == harness::WlOp::kTxn) {
      // Transactions only expose a blocking commit: the driver waits inline
      // and later arrivals are charged the delay.
      ++txns_;
      write_issued(a.key, a.value, seq);
      write_issued(a.key2, a.value, seq);
      const std::int32_t span = traced ? tracer_.open(kSpanTxnCommit, seq - 1, op_span, now()) : -1;
      const bool ok = s.txn().put(a.key, a.value).put(a.key2, a.value).commit().committed();
      if (traced) tracer_.close(span, now());
      // TxnHandle carries no reply stamp: the wait's return stands in (on
      // sim it pumps 50 us slices, so this can read up to 50 us late).
      const Nanos done = now();
      finish(idx, due, done, ok);
      for (const std::uint64_t k : {a.key, a.key2}) {
        KeyState& ks = keys_[k];
        ks.inflight--;
        ks.acked = ok;
        ks.by_txn = ok;
        ks.txn_peer = k == a.key ? a.key2 : a.key;
        if (!ok) {
          ks.clean = false;
          ks.aborted_value = a.value;
        }
      }
      if (!ok) ++txn_aborts_;
      if (traced) tracer_.close(op_span, done);
      return;
    }
    const bool write = a.op == harness::WlOp::kUpdate;
    if (write) {
      write_issued(a.key, a.value, seq);
    } else {
      ++reads_;
    }
    const std::int32_t span = traced ? tracer_.open(kSpanSubmit, seq - 1, op_span, issued) : -1;
    SubmitHandle h = s.submit(write ? Op::kWrite : Op::kRead, a.key, write ? a.value : 0);
    if (traced) tracer_.close(span, now());
    active_.push_back(Flight{idx, due, std::move(h), write, a.key, seq, op_span});
  }

  void reap() {
    for (std::size_t i = 0; i < active_.size();) {
      Flight& f = active_[i];
      if (!f.h.done()) {
        ++i;
        continue;
      }
      const Nanos done = f.h.completed_at();
      finish(f.rec, f.due, done, true);
      if (f.write) {
        KeyState& k = keys_[f.key];
        k.inflight--;
        if (k.seq == f.seq) k.acked = true;
      }
      if (f.span >= 0) tracer_.close(f.span, done);
      active_[i] = std::move(active_.back());
      active_.pop_back();
    }
  }

  const WorkloadSpec& w_;
  ServiceClient& svc_;
  Tracer& tracer_;
  Phase cur_;
  std::vector<KeyState> keys_;
  std::vector<Flight> active_;
  std::vector<consensus::NodeId> leaders_;
  std::vector<Nanos> lags_;
  bool watching_ = false;
  bool recording_lags_ = false;
  std::uint64_t ops_ = 0;  // ops issued so far (request ids, write order)
  std::int64_t leader_changes_ = 0;
  std::int64_t txns_ = 0;
  std::int64_t txn_aborts_ = 0;
  std::int64_t reads_ = 0;
};

// ------------------------------------------------------------ output check

// Compares replicas of every group over the whole key space and checks each
// key whose newest write was acknowledged (and overlapped no other write)
// against every replica. Returns an empty string when everything holds.
std::string check_outputs(ServiceClient& svc, const std::vector<KeyState>& keys) {
  char msg[256];
  for (GroupId g = 0; g < svc.num_groups(); ++g) {
    std::vector<const consensus::MapStateMachine*> sms;
    for (consensus::NodeId r = 0; r < svc.num_replicas(); ++r) {
      const auto* sm = dynamic_cast<const consensus::MapStateMachine*>(svc.state_machine(g, r));
      if (sm == nullptr) return "replica state machine is not a MapStateMachine";
      sms.push_back(sm);
    }
    for (std::size_t r = 1; r < sms.size(); ++r) {
      if (sms[r]->size() != sms[0]->size()) {
        std::snprintf(msg, sizeof msg, "group %d replica %zu holds %zu keys, replica 0 %zu",
                      g, r, sms[r]->size(), sms[0]->size());
        return msg;
      }
    }
    for (std::uint64_t k = 0; k < keys.size(); ++k) {
      if (svc.group_of(k) != g) continue;
      for (std::size_t r = 1; r < sms.size(); ++r) {
        if (sms[r]->read(k) != sms[0]->read(k) ||
            sms[r]->versioned_read(k) != sms[0]->versioned_read(k)) {
          std::snprintf(msg, sizeof msg, "group %d replicas 0 and %zu disagree on key %" PRIu64,
                        g, r, k);
          return msg;
        }
      }
    }
  }
  for (std::uint64_t k = 0; k < keys.size(); ++k) {
    const KeyState& ks = keys[k];
    const std::uint64_t held = svc.state_machine(svc.group_of(k), 0)->read(k);
    if (ks.aborted_value != 0 && held == ks.aborted_value) {
      std::snprintf(msg, sizeof msg, "an aborted txn's value is visible on key %" PRIu64, k);
      return msg;
    }
    if (!ks.clean || !ks.acked || held == ks.value) continue;
    if (ks.by_txn) {
      const KeyState& peer = keys[ks.txn_peer];
      const bool peer_visible =
          svc.state_machine(svc.group_of(ks.txn_peer), 0)->read(ks.txn_peer) == ks.value;
      std::snprintf(msg, sizeof msg,
                    "committed txn missing on key %" PRIu64 " (visible on key %" PRIu64 ": %s)",
                    k, ks.txn_peer, peer.seq == ks.seq && peer_visible ? "yes" : "no");
      return msg;
    }
    std::snprintf(msg, sizeof msg,
                  "acknowledged write missing on key %" PRIu64 " (holds %" PRIx64
                  ", acknowledged %" PRIx64 ", %" PRIu64 " writes applied)",
                  k, held, ks.value, svc.state_machine(svc.group_of(k), 0)->versioned_read(k));
    return msg;
  }
  return "";
}

// --------------------------------------------------------- microbenchmarks

// ns per call: the minimum over kReps timed loops of `n` calls each.
template <typename Fn>
double micro_ns(std::int64_t n, Fn&& fn) {
  constexpr int kReps = 5;
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const Nanos t0 = now_nanos();
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    best = std::min(best, static_cast<double>(now_nanos() - t0) / static_cast<double>(n));
  }
  return best;
}

std::uint64_t g_sink = 0;  // keeps microbenchmark results observable

consensus::Batch make_batch(Rng& rng, std::int32_t count) {
  consensus::Batch b;
  for (std::int32_t i = 0; i < count; ++i) {
    consensus::Command c;
    c.client = 3;
    c.seq = static_cast<std::uint32_t>(i + 1);
    c.op = Op::kWrite;
    c.key = rng.next_below(kKeySpace);
    c.value = rng.next_u64();
    b.push_back(c);
  }
  return b;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void add(Metrics& m, const std::string& name, double value, const char* unit) {
  m.emplace_back(name, std::make_pair(value, unit));
}

void run_micro(Metrics& m, std::uint64_t seed) {
  using consensus::Message;
  using consensus::MsgType;
  using consensus::ProtoId;
  Rng rng(seed);
  const consensus::Batch batch64 = make_batch(rng, 64);
  const consensus::Batch batch8 = make_batch(rng, consensus::kMaxClientBatchCommands);

  // Codec: encode and decode one frame of each kind on the hot path.
  auto frame = [&](MsgType t) {
    Message msg(t, ProtoId::kMultiPaxos, 0, 1);
    switch (t) {
      case MsgType::kPhase2BatchReq:
        msg.u.phase2_batch_req.instance = 77;
        msg.u.phase2_batch_req.pn = consensus::ProposalNum{3, 0};
        msg.u.phase2_batch_req.count = msg.u.phase2_batch_req.run.pack(batch64);
        break;
      case MsgType::kOpxBatchLearn:
        msg.proto = ProtoId::kOnePaxos;
        msg.u.opx_batch_learn.instance = 77;
        msg.u.opx_batch_learn.count = msg.u.opx_batch_learn.run.pack(batch64);
        break;
      default:
        msg.proto = ProtoId::kClient;
        msg.u.client_cmd_batch.count = msg.u.client_cmd_batch.run.pack(batch8);
        break;
    }
    return msg;
  };
  std::vector<unsigned char> buf(wire::kMaxFrameBytes);
  const std::pair<const char*, MsgType> kinds[] = {
      {"phase2", MsgType::kPhase2BatchReq},
      {"learn", MsgType::kOpxBatchLearn},
      {"client_batch", MsgType::kClientCmdBatch}};
  for (const auto& [label, type] : kinds) {
    const Message msg = frame(type);
    const double enc = micro_ns(20000, [&](std::int64_t) {
      g_sink += wire::encode(msg, buf.data());
    });
    const std::uint32_t n = wire::encode(msg, buf.data());
    const double dec = micro_ns(20000, [&](std::int64_t) {
      Message out;
      g_sink += wire::try_decode(buf.data(), n, &out) ? 1 : 0;
      wire::release_body(out);
    });
    add(m, std::string("consensus.encode_ns.") + label, enc, "ns");
    add(m, std::string("consensus.decode_ns.") + label, dec, "ns");
    wire::release_body(msg);
  }

  // Batcher: push one command and take a full batch every 64 pushes.
  {
    consensus::BatchPolicy policy;
    policy.max_commands = 64;
    policy.flush_after = kFlushBudget;
    policy.flush_mode = consensus::BatchPolicy::FlushMode::kAdaptive;
    consensus::Batcher b(policy);
    add(m, "consensus.batcher_ns", micro_ns(200000, [&](std::int64_t i) {
          b.push(batch64[static_cast<std::size_t>(i & 63)], i * 100);
          if (b.size() >= 64) g_sink += b.take().size();
        }), "ns");
  }

  // Command pool: alloc + release of one 64-command body.
  add(m, "consensus.pool_ns", micro_ns(50000, [&](std::int64_t) {
        consensus::CommandPool& pool = consensus::CommandPool::local();
        const consensus::BodyRef ref = pool.alloc(batch64.data(), 64);
        g_sink += pool.data(ref)->key;
        pool.release(ref);
      }), "ns");

  // State machine: apply one write.
  {
    consensus::MapStateMachine sm;
    add(m, "consensus.apply_ns", micro_ns(200000, [&](std::int64_t i) {
          g_sink += sm.apply(batch64[static_cast<std::size_t>(i & 63)]);
        }), "ns");
  }

  // Send ring: push one prefixed 64-command frame and pop it back out.
  {
    const Message msg = frame(MsgType::kPhase2BatchReq);
    const std::uint32_t n = wire::encode(msg, buf.data());
    wire::release_body(msg);
    net::SendRing ring(1 << 16);
    std::vector<unsigned char> out(n);
    add(m, "net.ring_ns", micro_ns(100000, [&](std::int64_t) {
          ring.push(buf.data(), n);
          std::size_t got = 0;
          std::size_t left = n;
          while (left > 0) {
            std::size_t avail = 0;
            const unsigned char* p = ring.peek(&avail);
            const std::size_t take = std::min(avail, left);
            std::memcpy(out.data() + got, p, take);
            ring.consume(take);
            got += take;
            left -= take;
          }
          g_sink += out[0];
        }), "ns");

    // Reassembler: 16 prefixed frames per feed, split mid-frame.
    std::vector<unsigned char> stream;
    for (int i = 0; i < 16; ++i) {
      unsigned char pre[net::kLenPrefixBytes];
      net::put_len_prefix(pre, n);
      stream.insert(stream.end(), pre, pre + net::kLenPrefixBytes);
      stream.insert(stream.end(), buf.data(), buf.data() + n);
    }
    net::FrameReassembler reasm(wire::kMaxFrameBytes);
    const std::size_t cut = stream.size() / 2 + 7;
    const double per_feed = micro_ns(20000, [&](std::int64_t) {
      auto cb = [](const unsigned char* p, std::uint32_t len) { g_sink += p[0] + len; };
      reasm.feed(stream.data(), cut, cb);
      reasm.feed(stream.data() + cut, stream.size() - cut, cb);
    });
    add(m, "net.reasm_ns", per_feed / 16.0, "ns");
  }

  // Common: histogram record and zipf draw (the driver's own hot path).
  {
    Histogram h;
    add(m, "common.hist_record_ns", micro_ns(1000000, [&](std::int64_t i) {
          h.record(1000 + (i & 4095));
        }), "ns");
    g_sink += h.count();
    Zipf z(kKeySpace, 0.99);
    Rng zr(seed + 1);
    add(m, "common.zipf_ns", micro_ns(1000000, [&](std::int64_t) {
          g_sink += z.next(zr);
        }), "ns");
  }
}

// ----------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--corrupt-replica]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(val().c_str());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--spans") a.spans = val();
    else if (k == "--corrupt-replica") a.corrupt = true;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

// The driver's one result line (printed only when the output check passed).
void print_json(std::int64_t attempted, std::int64_t failed, const Metrics& m) {
  std::printf("{\"correct\": true, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].first.c_str(), m[i].second.first, m[i].second.second);
  }
  std::printf("}}\n");
}

// Wall (net) or virtual (sim) seconds from constructing a client to its
// first commit; the constructed client is returned for reuse.
std::unique_ptr<ServiceClient> setup_once(const WorkloadSpec& w, std::uint64_t seed,
                                          std::int32_t replicas, double* setup_s) {
  const Nanos t0 = now_nanos();
  auto svc = std::make_unique<ServiceClient>(make_options(w, seed, replicas));
  SubmitHandle h = svc->session(0).submit(Op::kWrite, kKeySpace + 1, 1);
  h.wait();
  *setup_s = w.backend == Backend::kSim ? static_cast<double>(h.completed_at()) / 1e9
                                        : static_cast<double>(now_nanos() - t0) / 1e9;
  return svc;
}

struct PeakResult {
  double ops_s = 0;
  double cpu_us_per_op = 0;  // net only
  double msgs_per_op = 0;
  double bytes_per_op = 0;
  double wall_ns_per_op = 0;
};

// The slow-leader phase of the *-slowleader variants: arrivals stay on
// schedule while group 0's leader runs kSlowFactor times slower, from a
// quarter into the phase to its end. Only this phase watches for leader
// changes; the gated workloads do no fault work.
struct FaultResult {
  double unavail_ms = 0;
  double p99_us = 0;
  std::int64_t leader_changes = 0;
};

FaultResult slow_leader_phase(ServiceClient& svc, Runner& runner, harness::ArrivalGen& gen,
                              Nanos len) {
  consensus::NodeId slowed = consensus::kNoNode;
  Nanos fault_start = 0;
  runner.watch_fault(true);
  const std::int64_t changes0 = runner.leader_changes();
  Phase ph = runner.open(gen, len, len / 4, [&] {
    slowed = svc.believed_leader(0);
    fault_start = runner.now();
    svc.throttle_replica(0, slowed, kSlowFactor);
  });
  runner.watch_fault(false);
  svc.throttle_replica(0, slowed, 1);
  // The longest stretch with an op due and none completing: between two
  // consecutive completions, the gap counts from the later of the first
  // completion and the earliest due time among ops still pending.
  std::vector<std::pair<Nanos, Nanos>> done_due;
  // Ops that never replied are charged up to the drain deadline.
  std::vector<Nanos> lat;
  for (std::size_t k = 0; k < ph.due.size(); ++k) {
    if (ph.due[k] < fault_start) continue;
    done_due.emplace_back(ph.due[k] + ph.lat[k], ph.due[k]);
    lat.push_back(ph.lat[k]);
  }
  std::sort(done_due.begin(), done_due.end());
  std::sort(lat.begin(), lat.end());
  std::vector<Nanos> min_due_after(done_due.size() + 1, INT64_MAX);
  for (std::size_t k = done_due.size(); k > 0; --k) {
    min_due_after[k - 1] = std::min(min_due_after[k], done_due[k - 1].second);
  }
  Nanos longest = 0;
  Nanos prev = fault_start;
  for (std::size_t k = 0; k < done_due.size(); ++k) {
    longest = std::max(longest, done_due[k].first - std::max(prev, min_due_after[k]));
    prev = std::max(prev, done_due[k].first);
  }
  return FaultResult{static_cast<double>(longest) / 1e6, percentile_us(lat, 0.99),
                     runner.leader_changes() - changes0};
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return w;
  }
  usage(("unknown workload " + name).c_str());
}

Nanos scaled(Nanos len, double seconds) {
  return static_cast<Nanos>(static_cast<double>(len) * seconds / 10.0);
}

// p50 of the net workload's low rung on a fresh group of `replicas`.
double net_probe(std::uint64_t seed, std::int32_t replicas, double seconds) {
  const WorkloadSpec& w = find_workload("net-mpaxos-ycsba");
  double setup = 0;
  auto svc = setup_once(w, seed, replicas, &setup);
  Tracer off;
  Runner runner(w, *svc, off);
  harness::ArrivalGen warm(make_profile(w, seed + 1, 0));
  runner.closed(warm, scaled(w.peak_len, seconds) / 4);
  harness::ArrivalGen gen(make_profile(w, seed + 2, w.ladder[0]));
  return percentile_us(runner.open(gen, scaled(w.point_len, seconds)).sorted(), 0.5);
}

int run(const Args& args, const WorkloadSpec& w) {
  const bool sim = w.backend == Backend::kSim;
  const Nanos peak_len = scaled(w.peak_len, args.seconds);
  // Every phase draws from its own generator seed, derived from --seed.
  auto seed_of = [&](std::uint64_t phase) { return SplitMix64(args.seed * 64 + phase).next(); };

  // Set-up, several times over: the median is the metric; the last client
  // carries the run.
  std::vector<double> setups;
  std::unique_ptr<ServiceClient> svc;
  for (std::int32_t i = 0; i < w.setup_reps; ++i) {
    svc.reset();
    double s = 0;
    svc = setup_once(w, seed_of(40 + static_cast<std::uint64_t>(i)), 3, &s);
    setups.push_back(s);
  }

  Tracer tracer;
  Runner runner(w, *svc, tracer);
  std::int64_t attempted = 0, failed = 0;
  std::size_t bookkeeping = 0;  // the largest phase's per-op storage, in bytes
  auto count = [&](const Phase& ph) {
    attempted += ph.ops();
    failed += ph.failed;
    bookkeeping = std::max(bookkeeping, (ph.lat.capacity() + ph.due.capacity()) * sizeof(Nanos));
  };

  // Warm-up: carries the groups past their elections and fills the hot keys.
  {
    harness::ArrivalGen gen(make_profile(w, seed_of(1), 0));
    runner.closed(gen, peak_len / 4);
  }

  // Peak: closed loop at a fixed depth. Under --trace 1 it runs twice,
  // untraced then traced, to measure the wall cost of tracing.
  auto peak_phase = [&](bool traced) {
    if (traced) tracer.enable();
    harness::ArrivalGen gen(make_profile(w, seed_of(2), 0));
    const std::uint64_t m0 = svc->total_messages();
    const std::uint64_t b0 = svc->total_bytes();
    const double cpu0 = process_cpu_ns();
    const double driver0 = thread_cpu_ns();
    const Nanos wall0 = now_nanos();
    const Phase ph = runner.closed(gen, peak_len);
    const double wall = static_cast<double>(now_nanos() - wall0);
    const double other_cpu = (process_cpu_ns() - cpu0) - (thread_cpu_ns() - driver0);
    count(ph);
    const auto ops = static_cast<double>(ph.ops());
    PeakResult p;
    p.ops_s = ops * 1e9 / static_cast<double>(ph.last_done - ph.start);
    p.msgs_per_op = static_cast<double>(svc->total_messages() - m0) / ops;
    p.bytes_per_op = static_cast<double>(svc->total_bytes() - b0) / ops;
    // The process's CPU per op, less the driver thread's (net only: on the
    // sim every thread's CPU is the simulator's own).
    p.cpu_us_per_op = other_cpu / ops / 1e3;
    p.wall_ns_per_op = wall / ops;
    return p;
  };
  const PeakResult untraced = args.trace ? peak_phase(false) : PeakResult{};
  const PeakResult peak = peak_phase(args.trace);

  // Open-loop ladder: low and mid always run; the higher rungs run while
  // they pass. A rung passes when every op succeeded, its p99 is within the
  // limit, and its backlog did not grow: when the schedule ends, no more ops
  // are pending than the rate times the limit (Little's law at the limit).
  auto lease_reads = [&]() {
    std::uint64_t n = 0;
    for (GroupId g = 0; g < svc->num_groups(); ++g) {
      for (consensus::NodeId r = 0; r < svc->num_replicas(); ++r) {
        if (auto* mp = svc->deployment().group(g).multi_paxos(r)) n += mp->lease_reads();
        if (auto* op = svc->deployment().group(g).one_paxos(r)) n += op->lease_reads();
      }
    }
    return n;
  };
  const std::int64_t reads0 = runner.reads();
  const std::uint64_t lease0 = sim ? lease_reads() : 0;
  double slo_ops_s = 0;
  double low_p50 = 0, low_p99 = 0, mid_p50 = 0, mid_p99 = 0, mid_p999 = 0;
  for (std::size_t i = 0; i < w.ladder.size(); ++i) {
    harness::ArrivalGen gen(make_profile(w, seed_of(10 + i), w.ladder[i]));
    // Issue lateness is a per-layer metric: kept only in the traced run.
    runner.record_lags(args.trace && i <= 1);
    Phase ph = runner.open(gen, scaled(i <= 1 ? w.point_len : w.rung_len, args.seconds));
    count(ph);
    const std::vector<Nanos>& lat = ph.sorted();
    const double p50 = percentile_us(lat, 0.5);
    const double p99 = percentile_us(lat, 0.99);
    const bool pass = ph.failed == 0 && p99 <= w.p99_limit_us &&
                      static_cast<double>(ph.late) <= w.ladder[i] * w.p99_limit_us / 1e6;
    std::fprintf(stderr,
                 "rung %.0f op/s: %zu ops, p50 %.1f us, p99 %.1f us, %" PRId64
                 " pending at end%s\n",
                 w.ladder[i], lat.size(), p50, p99, ph.late, pass ? "" : " (misses the limit)");
    // A passing rung served every arrival, so its realized arrival rate is
    // the rate it sustained.
    if (pass) slo_ops_s = static_cast<double>(lat.size()) * 1e9 / static_cast<double>(ph.len);
    if (i == 0) {
      low_p50 = p50;
      low_p99 = p99;
    } else if (i == 1) {
      mid_p50 = p50;
      mid_p99 = p99;
      mid_p999 = percentile_us(lat, 0.999);
    }
    if (i >= 1 && !pass) break;
  }
  const double lease_share =
      runner.reads() > reads0
          ? static_cast<double>(sim ? lease_reads() - lease0 : 0) /
                static_cast<double>(runner.reads() - reads0)
          : 0.0;

  Metrics e2e;
  add(e2e, "setup_s", median(setups), "s");
  add(e2e, "peak_ops_s", peak.ops_s, "1/s");
  add(e2e, "slo_ops_s", slo_ops_s, "1/s");
  add(e2e, "p50_us.low", low_p50, "us");
  add(e2e, "p99_us.low", low_p99, "us");
  add(e2e, "p50_us.mid", mid_p50, "us");
  add(e2e, "p99_us.mid", mid_p99, "us");
  add(e2e, "p999_us.mid", mid_p999, "us");
  if (w.slow_leader) {
    harness::ArrivalGen gen(make_profile(w, seed_of(30), w.ladder[0]));
    const FaultResult f = slow_leader_phase(*svc, runner, gen, scaled(w.point_len, args.seconds));
    add(e2e, "unavail_ms", f.unavail_ms, "ms");
    add(e2e, "p99_us.fault", f.p99_us, "us");
    std::fprintf(stderr, "slow-leader phase: %" PRId64 " leader changes\n", f.leader_changes);
  }
  add(e2e, "ok_ratio",
      static_cast<double>(attempted - failed) / static_cast<double>(std::max<std::int64_t>(attempted, 1)),
      "ratio");
  if (!sim) add(e2e, "cpu_us_per_op", peak.cpu_us_per_op, "us");
  const double rss_mb = peak_rss_mb();
  add(e2e, "peak_rss_mb", rss_mb, "MB");
  const double driver_mb =
      static_cast<double>(bookkeeping + runner.keys().capacity() * sizeof(KeyState)) / (1 << 20);
  std::fprintf(stderr, "driver bookkeeping: %.1f MB of the %.1f MB peak resident set\n",
               driver_mb, rss_mb);

  runner.settle();
  if (args.corrupt) {
    // Self-test hook: damage one replica through the public pointer.
    consensus::Command c;
    c.op = Op::kWrite;
    c.key = kKeySpace / 2;
    c.value = 0xBADC0FFEEull;
    svc->state_machine(0, 1)->apply(c);
  }
  const std::string error = check_outputs(*svc, runner.keys());
  if (!error.empty()) {
    std::fprintf(stderr, "output check FAILED: %s\n", error.c_str());
    return 1;
  }

  if (!args.trace) {
    print_json(attempted, failed, e2e);
    return 0;
  }

  std::fprintf(stderr, "traced run, end to end:");
  for (const auto& [name, v] : e2e) std::fprintf(stderr, " %s=%.6g", name.c_str(), v.first);
  std::fprintf(stderr, "\n");
  Metrics m;
  add(m, "consensus.msgs_per_op", peak.msgs_per_op, "count");
  add(m, "consensus.bytes_per_op", peak.bytes_per_op, "B");
  add(m, "consensus.lease_read_share", lease_share, "ratio");
  add(m, "client.txn_abort_ratio",
      runner.txns() == 0 ? 0.0
                         : static_cast<double>(runner.txn_aborts()) /
                               static_cast<double>(runner.txns()),
      "ratio");
  std::vector<Nanos>& lags = runner.lags();
  std::sort(lags.begin(), lags.end());
  add(m, "harness.issue_lag_us.p99", percentile_us(lags, 0.99), "us");
  // The net layer on every traced run: the net workload's low rung on a
  // three-replica and a one-replica group. The difference is replication's
  // share of net latency.
  svc.reset();
  add(m, "net.p50_us.low", net_probe(seed_of(50), 3, args.seconds), "us");
  add(m, "net.solo_p50_us.low", net_probe(seed_of(50), 1, args.seconds), "us");
  add(m, "client.submit_ns", tracer.mean_ns(kSpanSubmit, false), "ns");
  add(m, "client.txn_commit_us", tracer.mean_ns(kSpanTxnCommit, true) / 1e3, "us");
  add(m, "sim.pump_ns_per_op", tracer.mean_ns(kSpanPump, false), "ns");
  add(m, "harness.gen_ns", tracer.mean_ns(kSpanGen, false), "ns");
  add(m, "trace.overhead_pct", 100.0 * (peak.wall_ns_per_op / untraced.wall_ns_per_op - 1.0),
      "%");
  run_micro(m, args.seed);
  if (!args.spans.empty() && !tracer.write(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }
  print_json(attempted, failed, m);
  return 0;
}

// Every blocking call the driver makes (SubmitHandle::wait, TxnHandle::wait)
// lacks a deadline, so a stuck run is ended from outside: past its wall
// budget or its memory cap the process exits with code 3 and no result.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : deadline_(now_nanos() + static_cast<Nanos>((30 + 6 * seconds) * 1e9)),
        thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  static constexpr double kRssCapMb = 768;

  void watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; })) {
      const double rss = peak_rss_mb();
      if (now_nanos() > deadline_ || rss > kRssCapMb) {
        std::fprintf(stderr, "watchdog: run stuck (peak RSS %.0f MB); giving up\n", rss);
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }

  const Nanos deadline_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: it runs watch(), which uses the members above
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec& w = find_workload(args.workload);
  Watchdog watchdog(args.seconds);
  return run(args, w);
}
