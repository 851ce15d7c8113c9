// The harness flag table: every flag parses its good values and rejects
// each bad one loudly (exit 2) instead of silently running a default — a
// sweep that ran sim when the user typed a wrong --backend, or ran unbatched
// on --batch=0, would report the wrong machine's numbers.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "harness/cluster_harness.hpp"

namespace ci::harness {
namespace {

using FlushMode = consensus::BatchPolicy::FlushMode;

// argv helper: materializes writable argv from string literals.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : store_(std::move(args)) {
    ptrs_.push_back(prog_);
    for (auto& s : store_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  char prog_[5] = "test";
  std::vector<std::string> store_;
  std::vector<char*> ptrs_;
};

// Every flag: the cases below run as if one binary read them all.
const std::initializer_list<Flag> kAll = {
    Flag::kBackend,     Flag::kGroups,       Flag::kPlacement,      Flag::kBatch,
    Flag::kBatchFlushUs, Flag::kFlushPolicy, Flag::kClientCoalesce, Flag::kTxnMix,
    Flag::kReadMix,     Flag::kLeaseMs,      Flag::kSessions,       Flag::kNetPortBase,
    Flag::kNetRegistry, Flag::kNetIoThreads, Flag::kSweepDiff};

Parsed parse(std::vector<std::string> args, std::initializer_list<Flag> reads, Flags* f,
             std::string* text, const char* positional = nullptr) {
  Args a(std::move(args));
  return try_parse_flags(a.argc(), a.argv(), reads, f, text, positional);
}

TEST(ParseBackend, RecognizesAllBackends) {
  Backend b = Backend::kRt;
  EXPECT_TRUE(parse_backend("sim", &b));
  EXPECT_EQ(b, Backend::kSim);
  EXPECT_TRUE(parse_backend("rt", &b));
  EXPECT_EQ(b, Backend::kRt);
  EXPECT_TRUE(parse_backend("net", &b));
  EXPECT_EQ(b, Backend::kNet);
}

TEST(ParseBackend, RejectsUnknownNames) {
  Backend b = Backend::kSim;
  EXPECT_FALSE(parse_backend("simulator", &b));
  EXPECT_FALSE(parse_backend("", &b));
  EXPECT_FALSE(parse_backend("SIM", &b));
  EXPECT_EQ(b, Backend::kSim);  // untouched on failure
}

// A command line every flag accepts, and what it must set.
struct Good {
  std::vector<std::string> args;
  void (*check)(const Flags&);
};

const Good kGood[] = {
    {{"--backend=rt"}, [](const Flags& f) { EXPECT_EQ(f.backend, Backend::kRt); }},
    {{"--backend", "net"}, [](const Flags& f) { EXPECT_EQ(f.backend, Backend::kNet); }},
    {{"--backend=rt", "--backend=sim"},  // the last occurrence wins
     [](const Flags& f) { EXPECT_EQ(f.backend, Backend::kSim); }},
    {{"--groups=4"}, [](const Flags& f) { EXPECT_EQ(f.groups, 4); }},
    {{"--groups", "2"}, [](const Flags& f) { EXPECT_EQ(f.groups, 2); }},
    {{"--placement=group-major"},
     [](const Flags& f) { EXPECT_EQ(f.placement, Placement::kGroupMajor); }},
    {{"--placement=interleaved"},
     [](const Flags& f) { EXPECT_EQ(f.placement, Placement::kInterleaved); }},
    {{"--placement", "colocated"},
     [](const Flags& f) { EXPECT_EQ(f.placement, Placement::kCoLocated); }},
    {{"--batch=8"}, [](const Flags& f) { EXPECT_EQ(f.batch.max_commands, 8); }},
    {{"--batch", "64"}, [](const Flags& f) { EXPECT_EQ(f.batch.max_commands, 64); }},
    {{"--batch-flush-us=50"},
     [](const Flags& f) { EXPECT_EQ(f.batch.flush_after, 50 * kMicrosecond); }},
    {{"--batch-flush-us=3600000000"},  // the overflow-safe ceiling itself
     [](const Flags& f) { EXPECT_EQ(f.batch.flush_after, 3600LL * kSecond); }},
    {{"--batch=16", "--batch-flush-us=200"},
     [](const Flags& f) {
       EXPECT_EQ(f.batch.max_commands, 16);
       EXPECT_EQ(f.batch.flush_after, 200 * kMicrosecond);
       EXPECT_TRUE(f.batch.batching());
     }},
    {{"--flush-policy=adaptive"},
     [](const Flags& f) { EXPECT_EQ(f.batch.flush_mode, FlushMode::kAdaptive); }},
    {{"--flush-policy", "fixed"},
     [](const Flags& f) { EXPECT_EQ(f.batch.flush_mode, FlushMode::kFixed); }},
    {{"--batch=32", "--batch-flush-us=100", "--flush-policy=adaptive"},
     [](const Flags& f) {
       EXPECT_EQ(f.batch.max_commands, 32);
       EXPECT_EQ(f.batch.flush_after, 100 * kMicrosecond);
       EXPECT_TRUE(f.batch.adaptive());
     }},
    {{"--client-coalesce=4"}, [](const Flags& f) { EXPECT_EQ(f.client_coalesce, 4); }},
    {{"--client-coalesce", "8"}, [](const Flags& f) { EXPECT_EQ(f.client_coalesce, 8); }},
    {{"--txn-mix=0.25"}, [](const Flags& f) { EXPECT_DOUBLE_EQ(f.txn_mix, 0.25); }},
    {{"--txn-mix", "1"}, [](const Flags& f) { EXPECT_DOUBLE_EQ(f.txn_mix, 1.0); }},
    {{"--read-mix=0.9"}, [](const Flags& f) { EXPECT_DOUBLE_EQ(f.read_mix, 0.9); }},
    {{"--read-mix", "1"}, [](const Flags& f) { EXPECT_DOUBLE_EQ(f.read_mix, 1.0); }},
    {{"--lease-ms=50"}, [](const Flags& f) { EXPECT_EQ(f.lease, 50 * kMillisecond); }},
    {{"--lease-ms", "0"},  // 0 = leases off, a legal explicit choice
     [](const Flags& f) { EXPECT_EQ(f.lease, 0); }},
    {{"--sessions=50000"}, [](const Flags& f) { EXPECT_EQ(f.sessions, 50000); }},
    {{"--sessions", "1000000"},  // the ceiling itself is legal
     [](const Flags& f) { EXPECT_EQ(f.sessions, 1000000); }},
    {{"--net-port-base=15000"}, [](const Flags& f) { EXPECT_EQ(f.net.port_base, 15000); }},
    {{"--net-port-base", "0"},  // 0 = ephemeral, a legal explicit choice
     [](const Flags& f) { EXPECT_EQ(f.net.port_base, 0); }},
    {{"--net-port-base=65535"}, [](const Flags& f) { EXPECT_EQ(f.net.port_base, 65535); }},
    {{"--net-registry=127.0.0.1:19000"},
     [](const Flags& f) { EXPECT_EQ(f.net.registry, "127.0.0.1:19000"); }},
    {{"--net-registry", "localhost:0"},  // port 0 = ephemeral bind
     [](const Flags& f) { EXPECT_EQ(f.net.registry, "localhost:0"); }},
    {{"--net-io-threads=2"}, [](const Flags& f) { EXPECT_EQ(f.net.io_threads, 2); }},
    {{"--net-io-threads", "0"},  // 0 = self-flushing, a legal choice
     [](const Flags& f) { EXPECT_EQ(f.net.io_threads, 0); }},
    {{"--net-port-base=14000", "--net-registry=127.0.0.1:14100", "--net-io-threads=3"},
     [](const Flags& f) {
       EXPECT_EQ(f.net.port_base, 14000);
       EXPECT_EQ(f.net.registry, "127.0.0.1:14100");
       EXPECT_EQ(f.net.io_threads, 3);
     }},
    {{"--sweep-diff"}, [](const Flags& f) { EXPECT_TRUE(f.sweep_diff); }},
};

TEST(Flags, EveryFlagParsesItsGoodValues) {
  for (const Good& g : kGood) {
    Flags f;
    std::string text;
    SCOPED_TRACE(g.args.front());
    ASSERT_EQ(parse(g.args, kAll, &f, &text), Parsed::kOk) << text;
    g.check(f);
  }
}

TEST(Flags, AbsentFlagsKeepTheBinarysDefaults) {
  Flags f;
  f.backend = Backend::kRt;
  f.groups = 4;
  f.txn_mix = 0.1;
  f.read_mix = -1.0;
  f.lease = 7 * kMillisecond;
  f.sessions = 256;
  std::string text;
  ASSERT_EQ(parse({}, kAll, &f, &text), Parsed::kOk);
  EXPECT_EQ(f.backend, Backend::kRt);
  EXPECT_EQ(f.groups, 4);
  EXPECT_DOUBLE_EQ(f.txn_mix, 0.1);
  EXPECT_DOUBLE_EQ(f.read_mix, -1.0);
  EXPECT_EQ(f.lease, 7 * kMillisecond);
  EXPECT_EQ(f.sessions, 256);
  // And the struct's own defaults, which most binaries keep.
  const Flags d;
  EXPECT_EQ(d.backend, Backend::kSim);
  EXPECT_EQ(d.groups, 1);
  EXPECT_EQ(d.placement, Placement::kGroupMajor);
  EXPECT_EQ(d.batch.max_commands, 1);  // unbatched
  EXPECT_EQ(d.batch.flush_after, 0);
  EXPECT_EQ(d.batch.flush_mode, FlushMode::kFixed);
  EXPECT_EQ(d.client_coalesce, 1);  // one frame per command
  EXPECT_EQ(d.net.port_base, 0);
  EXPECT_EQ(d.net.registry, "");  // loopback, ephemeral
  EXPECT_EQ(d.net.io_threads, 0);
  EXPECT_FALSE(d.sweep_diff);
}

// A command line that must exit 2, and a substring of its message.
struct Bad {
  std::vector<std::string> args;
  const char* message;
};

const Bad kBad[] = {
    {{"--backend=fast"}, "unknown backend 'fast'"},  // names the offender
    {{"--backend=bogus"}, "unknown backend"},
    {{"--backend"}, "--backend requires a value"},
    {{"--groups=0"}, "bad group count"},
    {{"--groups=four"}, "bad group count"},
    {{"--groups=99999999999"}, "bad group count"},
    {{"--groups"}, "requires a value"},
    {{"--placement=striped"}, "unknown placement"},
    {{"--placement"}, "requires a value"},
    // --batch=0 must not silently run unbatched.
    {{"--batch=0"}, "bad batch size '0'"},
    {{"--batch=-3"}, "bad batch size"},
    {{"--batch=lots"}, "bad batch size"},
    {{"--batch=65"}, "bad batch size"},  // beyond the compile-time ceiling
    {{"--batch"}, "requires a value"},
    {{"--batch-flush-us=-1"}, "bad flush timeout"},
    {{"--batch-flush-us=soon"}, "bad flush timeout"},
    // Beyond the overflow-safe bound (strtoll would clamp silently).
    {{"--batch-flush-us=9223372036854775807"}, "bad flush timeout"},
    {{"--batch-flush-us"}, "requires a value"},
    // --flush-policy=adptive must not silently run the fixed timer.
    {{"--flush-policy=adptive"}, "unknown flush policy"},
    {{"--flush-policy=auto"}, "unknown flush policy"},
    {{"--flush-policy=FIXED"}, "unknown flush policy"},
    {{"--flush-policy"}, "requires a value"},
    // --client-coalesce=0 must not silently run uncoalesced.
    {{"--client-coalesce=0"}, "bad coalesce window '0'"},
    {{"--client-coalesce=-2"}, "bad coalesce window"},
    {{"--client-coalesce=lots"}, "bad coalesce window"},
    // Beyond kMaxClientBatchCommands: one kClientCmdBatch frame cannot
    // carry more than the inline run capacity.
    {{"--client-coalesce=9"}, "bad coalesce window"},
    {{"--client-coalesce"}, "requires a value"},
    {{"--txn-mix=1.5"}, "bad txn mix"},
    {{"--txn-mix=-0.1"}, "bad txn mix"},
    {{"--txn-mix=nan"}, "bad txn mix"},
    {{"--txn-mix=lots"}, "bad txn mix"},
    {{"--txn-mix=0.5x"}, "bad txn mix"},
    {{"--txn-mix"}, "requires a value"},
    // A read mix above 1 must not silently clamp to 100% reads.
    {{"--read-mix=1.5"}, "bad read mix"},
    {{"--read-mix=-0.1"}, "bad read mix"},
    {{"--read-mix=nan"}, "bad read mix"},
    {{"--read-mix=lots"}, "bad read mix"},
    {{"--read-mix=0.5x"}, "bad read mix"},
    {{"--read-mix"}, "requires a value"},
    {{"--lease-ms=-1"}, "bad lease duration"},
    {{"--lease-ms=forever"}, "bad lease duration"},
    {{"--lease-ms=5s"}, "bad lease duration"},
    // Beyond the overflow-safe bound (strtoll would clamp silently).
    {{"--lease-ms=9223372036854775807"}, "bad lease duration"},
    {{"--lease-ms"}, "requires a value"},
    {{"--sessions=0"}, "bad session count"},
    {{"--sessions=-5"}, "bad session count"},
    {{"--sessions=1000001"}, "bad session count"},
    {{"--sessions=many"}, "bad session count"},
    {{"--sessions=1e6"}, "bad session count"},
    {{"--sessions"}, "requires a value"},
    {{"--net-port-base=-1"}, "bad net port base"},
    {{"--net-port-base=65536"}, "bad net port base"},
    {{"--net-port-base=http"}, "bad net port base"},
    {{"--net-port-base=80x"}, "bad net port base"},
    {{"--net-port-base"}, "requires a value"},
    // A registry the mesh can never reach must fail at the flag, not as a
    // 20-second bootstrap timeout later.
    {{"--net-registry=localhost"}, "bad registry endpoint"},
    {{"--net-registry=:9000"}, "bad registry endpoint"},
    {{"--net-registry=host:notaport"}, "bad registry endpoint"},
    {{"--net-registry=host:70000"}, "bad registry endpoint"},
    {{"--net-registry"}, "requires a value"},
    {{"--net-io-threads=-1"}, "bad io-thread count"},
    {{"--net-io-threads=65"}, "bad io-thread count"},
    {{"--net-io-threads=all"}, "bad io-thread count"},
    {{"--net-io-threads=2.5"}, "bad io-thread count"},
    {{"--net-io-threads"}, "requires a value"},
    // A bad value is an error even when a later occurrence is good.
    {{"--batch=0", "--batch=8"}, "bad batch size '0'"},
    // Flags outside the table, typo'd or longer names sharing a prefix.
    {{"--group=4"}, "unknown flag"},
    {{"--groupsize=4"}, "unknown flag '--groupsize=4'"},
    {{"--colocated"}, "unknown flag"},
    {{"--sweep-diff=yes"}, "unknown flag"},
    {{"-v"}, "unknown flag"},
    {{"stray"}, "unexpected argument 'stray'"},
};

TEST(Flags, EveryBadValueIsAnErrorAndExitsTwo) {
  for (const Bad& b : kBad) {
    SCOPED_TRACE(b.args.front());
    Flags f;
    std::string text;
    EXPECT_EQ(parse(b.args, kAll, &f, &text), Parsed::kError);
    EXPECT_NE(text.find(b.message), std::string::npos) << text;
    Args a(b.args);
    EXPECT_EXIT(parse_flags(a.argc(), a.argv(), kAll, &f), ::testing::ExitedWithCode(2),
                b.message);
  }
}

TEST(Flags, MissingValueNamesTheFlagAndItsShape) {
  Flags f;
  std::string text;
  ASSERT_EQ(parse({"--batch"}, kAll, &f, &text), Parsed::kError);
  EXPECT_EQ(text, "--batch requires a value (expected --batch=N, 1 <= N <= 64)");
}

TEST(Flags, FlagsTheBinaryDoesNotReadExitTwo) {
  for (const char* arg : {"--groups=4", "--sweep-diff", "--lease-ms=5"}) {
    Args a({arg});
    Flags f;
    EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {Flag::kBackend}, &f),
                ::testing::ExitedWithCode(2), "not used by this binary")
        << arg;
  }
  // A flagless binary rejects even --backend: it would silently run sim.
  Args a({"--backend=rt"});
  Flags f;
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {}, &f), ::testing::ExitedWithCode(2),
              "not used by this binary");
}

// sweep_diff reads the batch flags, --groups and --placement and takes
// positionals; everything else used to be accepted and ignored.
TEST(Flags, PositionalBinaryRejectsFlagsItDoesNotRead) {
  const std::initializer_list<Flag> reads = {Flag::kGroups, Flag::kPlacement, Flag::kBatch,
                                              Flag::kBatchFlushUs, Flag::kFlushPolicy};
  const char* kPositional = "[2pc|basic|multi|1paxos] [sim] [rt] [net]";
  Flags f;
  std::string text;
  EXPECT_EQ(parse({"1paxos", "sim", "--backend=rt", "--lease-ms=5", "--zipf=0.5"}, reads, &f,
                  &text, kPositional),
            Parsed::kError);
  EXPECT_NE(text.find("flag '--backend' is not used by this binary"), std::string::npos) << text;
  // --zipf (like --target-rate, --workload and --value-bytes) is no flag.
  EXPECT_EQ(parse({"1paxos", "--zipf=0.5"}, reads, &f, &text, kPositional), Parsed::kError);
  EXPECT_NE(text.find("unknown flag '--zipf=0.5'"), std::string::npos) << text;
  Args a({"1paxos", "sim", "--backend=rt", "--lease-ms=5", "--zipf=0.5"});
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(), reads, &f, kPositional),
              ::testing::ExitedWithCode(2), "not used by this binary");
}

TEST(Flags, PositionalsSkipFlagsAndTheirSpaceFormValues) {
  Flags f;
  std::string text;
  ASSERT_EQ(parse({"multipaxos", "--backend", "rt", "300", "--groups=4", "--placement",
                   "colocated", "--batch", "8", "--batch-flush-us=10", "--client-coalesce",
                   "4", "--txn-mix", "0.3", "--read-mix", "0.9", "--lease-ms=50",
                   "--sessions", "50000", "--flush-policy=adaptive", "--net-port-base",
                   "14000", "--net-registry=127.0.0.1:0", "--net-io-threads", "2", "keep"},
                  kAll, &f, &text, "[args]"),
            Parsed::kOk)
      << text;
  ASSERT_EQ(f.positional.size(), 3u);
  EXPECT_EQ(f.positional[0], "multipaxos");
  EXPECT_EQ(f.positional[1], "300");
  EXPECT_EQ(f.positional[2], "keep");
  EXPECT_EQ(f.backend, Backend::kRt);
  EXPECT_EQ(f.net.io_threads, 2);
}

TEST(Flags, BinariesWithoutPositionalsRejectThem) {
  Args a({"--backend=sim", "foo"});
  Flags f;
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {Flag::kBackend}, &f),
              ::testing::ExitedWithCode(2), "unexpected argument 'foo'");
}

// --help prints the binary's own rows with its defaults and exits 0.
TEST(Usage, HelpPrintsTheBinarysRowsAndExitsZero) {
  Flags f;
  std::string text;
  ASSERT_EQ(parse({"--help"}, kAll, &f, &text), Parsed::kHelp);
  for (const char* flag : {"--backend", "--groups", "--placement", "--batch",
                           "--batch-flush-us", "--flush-policy", "--client-coalesce",
                           "--txn-mix", "--read-mix", "--lease-ms", "--sessions",
                           "--net-port-base", "--net-registry", "--net-io-threads",
                           "--sweep-diff", "--help"}) {
    EXPECT_NE(text.find(flag), std::string::npos) << flag << " missing from usage";
  }

  f.backend = Backend::kRt;
  ASSERT_EQ(parse({"--help"}, {Flag::kBackend}, &f, &text), Parsed::kHelp);
  EXPECT_EQ(text.find("usage: test [flags]\n"), 0u) << text;
  EXPECT_NE(text.find("default rt"), std::string::npos) << text;
  EXPECT_EQ(text.find("--groups"), std::string::npos) << text;

  ASSERT_EQ(parse({"--help"}, {}, &f, &text, "[protocol]"), Parsed::kHelp);
  EXPECT_EQ(text.find("usage: test [protocol]\n"), 0u) << text;

  // (the EXIT matcher regex applies to stderr; usage goes to stdout, so
  // only the exit code is asserted here)
  {
    Args a({"--help"});
    EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {}, &f), ::testing::ExitedWithCode(0), "");
  }
  {
    Args a({"keep", "--help"});
    EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {Flag::kBackend}, &f, "[x]"),
                ::testing::ExitedWithCode(0), "");
  }
}

// The unknown-flag message names every flag the binary reads.
TEST(Usage, UnknownFlagExitsTwoNamingTheBinarysFlags) {
  Flags f;
  Args a({"--txnmix=0.5"});
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(), kAll, &f), ::testing::ExitedWithCode(2),
              "--backend, --groups, --placement, --batch, --batch-flush-us, --flush-policy, "
              "--client-coalesce, --txn-mix, --read-mix, --lease-ms, --sessions, "
              "--net-port-base, --net-registry, --net-io-threads, --sweep-diff, --help");
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {Flag::kSessions}, &f),
              ::testing::ExitedWithCode(2), "reads: --sessions, --help");
}

}  // namespace
}  // namespace ci::harness
