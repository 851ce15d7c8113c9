// Unit tests for the discrete-event engine itself: the cost model the
// figure reproductions rest on. If these are right, throughput saturation
// in the sims is a consequence of message counts — the paper's claim —
// and not an artifact.
#include "sim/sim_net.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "consensus/wire_codec.hpp"

namespace ci::sim {
namespace {

using consensus::Context;
using consensus::Engine;
using consensus::Message;
using consensus::MsgType;
using consensus::ProtoId;

// Records every delivery with its logical receive time.
class Recorder final : public Engine {
 public:
  void on_message(Context& ctx, const Message& m) override {
    deliveries.emplace_back(ctx.now(), m);
    if (reply_to >= 0) {
      Message r(MsgType::kPong, ProtoId::kControl, ctx.self(), reply_to);
      ctx.send(reply_to, r);
    }
  }

  std::vector<std::pair<Nanos, Message>> deliveries;
  consensus::NodeId reply_to = -1;
};

// Sends `count` pings to node `dst` at start.
class Pinger final : public Engine {
 public:
  Pinger(consensus::NodeId dst, int count) : dst_(dst), count_(count) {}

  void start(Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      Message m(MsgType::kPing, ProtoId::kControl, ctx.self(), dst_);
      ctx.send(dst_, m);
    }
  }
  void on_message(Context& ctx, const Message& m) override { last_reply_at = ctx.now(); (void)m; }

  Nanos last_reply_at = -1;

 private:
  consensus::NodeId dst_;
  int count_;
};

LatencyModel flat_model() {
  LatencyModel m;
  m.trans_send = 100;
  m.trans_recv = 200;
  m.prop = 1000;
  m.prop_jitter = 0;
  m.handler_cost = 50;
  return m;
}

TEST(SimNet, SingleMessageTimingMatchesModel) {
  SimNet net(flat_model(), /*seed=*/1, /*tick=*/kMillisecond);
  Pinger pinger(1, 1);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.run_until(10 * kMicrosecond);
  ASSERT_EQ(recorder.deliveries.size(), 1u);
  // Send at t=0 costs trans_send (100); arrival at 100 + prop (1000);
  // processing ends at arrival + trans_recv + handler (250).
  EXPECT_EQ(recorder.deliveries[0].first, 100 + 1000 + 200 + 50);
}

TEST(SimNet, SenderPaysPerMessageSerially) {
  SimNet net(flat_model(), 1, kMillisecond);
  Pinger pinger(1, 3);  // three sends back to back
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.run_until(10 * kMicrosecond);
  ASSERT_EQ(recorder.deliveries.size(), 3u);
  // Departures at 100, 200, 300; arrivals at 1100, 1200, 1300. The first
  // processes over [1100, 1350); the second arrives while the receiver is
  // busy and processes over [1350, 1600); the third over [1600, 1850).
  EXPECT_EQ(recorder.deliveries[0].first, 1350);
  EXPECT_EQ(recorder.deliveries[1].first, 1600);
  EXPECT_EQ(recorder.deliveries[2].first, 1850);
}

TEST(SimNet, SelfSendIsFreeAndDeferred) {
  SimNet net(flat_model(), 1, kMillisecond);
  // An engine that self-sends once and records both handler invocations.
  class SelfSender final : public Engine {
   public:
    void start(Context& ctx) override {
      Message m(MsgType::kPing, ProtoId::kControl, ctx.self(), ctx.self());
      ctx.send(ctx.self(), m);
      started_at = ctx.now();
    }
    void on_message(Context& ctx, const Message&) override { handled_at = ctx.now(); }
    Nanos started_at = -1;
    Nanos handled_at = -1;
  } node;
  net.add_node(&node);
  net.run_until(10 * kMicrosecond);
  ASSERT_GE(node.handled_at, 0);
  EXPECT_EQ(net.messages_sent(0), 0u);  // no boundary crossing counted
  // Only the receive-side cost is charged (processing is still work).
  EXPECT_EQ(node.handled_at, node.started_at + 250);
}

TEST(SimNet, SlowWindowMultipliesCosts) {
  SimNet net(flat_model(), 1, kMillisecond);
  Pinger pinger(1, 1);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.slow_node(1, 0, kSecond, 10.0);  // receiver 10x slow
  net.run_until(kMillisecond);
  ASSERT_EQ(recorder.deliveries.size(), 1u);
  // Receive processing costs (200+50)*10 instead of 250.
  EXPECT_EQ(recorder.deliveries[0].first, 100 + 1000 + 2500);
}

TEST(SimNet, SlowWindowEndsOnSchedule) {
  SimNet net(flat_model(), 1, kMillisecond);
  Pinger pinger(1, 1);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.slow_node(1, 0, 500, 10.0);  // window ends before the message arrives
  net.run_until(kMillisecond);
  ASSERT_EQ(recorder.deliveries.size(), 1u);
  EXPECT_EQ(recorder.deliveries[0].first, 100 + 1000 + 250);  // normal cost
}

TEST(SimNet, JitterIsDeterministicPerSeed) {
  LatencyModel jittery = flat_model();
  jittery.prop_jitter = 500;
  auto run_once = [&](std::uint64_t seed) {
    SimNet net(jittery, seed, kMillisecond);
    Pinger pinger(1, 5);
    Recorder recorder;
    net.add_node(&pinger);
    net.add_node(&recorder);
    net.run_until(kMillisecond);
    std::vector<Nanos> times;
    for (auto& [t, m] : recorder.deliveries) times.push_back(t);
    return times;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimNet, DropProbabilityLosesMessages) {
  LatencyModel lossy = flat_model();
  lossy.drop_probability = 0.5;
  SimNet net(lossy, 3, kMillisecond);
  Pinger pinger(1, 1000);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.run_until(10 * kMillisecond);
  EXPECT_GT(net.messages_dropped(), 300u);
  EXPECT_LT(net.messages_dropped(), 700u);
  EXPECT_EQ(recorder.deliveries.size() + net.messages_dropped(), 1000u);
}

TEST(SimNet, ScheduledCallRunsAtTime) {
  SimNet net(flat_model(), 1, kMillisecond);
  Recorder recorder;
  net.add_node(&recorder);
  bool fired = false;
  net.schedule_call(5 * kMicrosecond, 0, [&] { fired = true; });
  net.run_until(4 * kMicrosecond);
  EXPECT_FALSE(fired);
  net.run_until(6 * kMicrosecond);
  EXPECT_TRUE(fired);
}

TEST(SimNet, TicksKeepFiringForever) {
  SimNet net(flat_model(), 1, 10 * kMicrosecond);
  class TickCounter final : public Engine {
   public:
    void on_message(Context&, const Message&) override {}
    void tick(Context&) override { ticks++; }
    int ticks = 0;
  } node;
  net.add_node(&node);
  net.run_until(kMillisecond);
  EXPECT_GE(node.ticks, 99);
  EXPECT_LE(node.ticks, 101);
}

// Counts ticks with the virtual time each one ran at.
class TickLog final : public Engine {
 public:
  void on_message(Context&, const Message&) override {}
  void tick(Context& ctx) override { at.push_back(ctx.now()); }
  std::vector<Nanos> at;
};

TEST(SimNet, RunUntilStopsAtTheFirstEventThatSatisfiesStop) {
  SimNet net(flat_model(), 1, kMillisecond);
  Pinger pinger(1, 3);  // arrivals at 1100, 1200, 1300 (see SenderPaysPerMessageSerially)
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  const bool stopped =
      net.run_until(10 * kMicrosecond, [&] { return recorder.deliveries.size() == 2; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(net.now(), 1200);  // the second arrival's event time
  EXPECT_EQ(recorder.deliveries.size(), 2u);
  // The third delivery stays queued and runs on the next call.
  EXPECT_FALSE(net.run_until(10 * kMicrosecond, [] { return false; }));
  EXPECT_EQ(recorder.deliveries.size(), 3u);
  EXPECT_EQ(net.now(), 10 * kMicrosecond);
}

TEST(SimNet, KickRunsOneTickNowAndLeavesPeriodicTicksAlone) {
  SimNet net(flat_model(), 1, 10 * kMicrosecond);
  TickLog node;
  net.add_node(&node);
  net.run_until(25 * kMicrosecond);  // periodic ticks at 10 and 20 us
  ASSERT_EQ(node.at, (std::vector<Nanos>{10 * kMicrosecond, 20 * kMicrosecond}));
  net.kick(0);
  net.kick(0);  // rung while pending: absorbed
  net.kick(0);
  net.run_until(45 * kMicrosecond);
  EXPECT_EQ(node.at, (std::vector<Nanos>{10 * kMicrosecond, 20 * kMicrosecond,
                                         25 * kMicrosecond, 30 * kMicrosecond,
                                         40 * kMicrosecond}));
  net.kick(0);  // a fresh ring after the kick ran rings again
  net.run_until(46 * kMicrosecond);
  EXPECT_EQ(node.at.back(), 45 * kMicrosecond);
  EXPECT_EQ(node.at.size(), 6u);
}

TEST(SimNet, KicksKeepRunsReproducible) {
  LatencyModel jittery = flat_model();
  jittery.prop_jitter = 500;
  // A node that pings its peer from every tick, so kicked ticks add sends
  // (and with them draws from the jitter RNG) between periodic ones.
  class TickPinger final : public Engine {
   public:
    void on_message(Context&, const Message&) override {}
    void tick(Context& ctx) override {
      Message m(MsgType::kPing, ProtoId::kControl, ctx.self(), 1);
      ctx.send(1, m);
    }
  };
  auto run_once = [&] {
    SimNet net(jittery, 7, 10 * kMicrosecond);
    TickPinger pinger;
    Recorder recorder;
    net.add_node(&pinger);
    net.add_node(&recorder);
    for (Nanos t = 3 * kMicrosecond; t < 200 * kMicrosecond; t += 7 * kMicrosecond) {
      net.run_until(t);
      net.kick(0);
    }
    net.run_until(300 * kMicrosecond);
    std::vector<Nanos> times;
    for (auto& [at, m] : recorder.deliveries) times.push_back(at);
    return times;
  };
  const std::vector<Nanos> first = run_once();
  EXPECT_GT(first.size(), 50u);
  EXPECT_EQ(first, run_once());
}

// The optional bandwidth term (LatencyModel::bytes_per_second), charged from
// the encoded frame size the codec reports. Off by default — the legacy
// per-message arithmetic must hold bit for bit (the timing pins above
// already run with the default model; the OFF case here re-checks with the
// field explicitly zeroed so a future default change cannot slip by).
TEST(SimNet, PerByteCostOffKeepsLegacyTiming) {
  LatencyModel m = flat_model();
  m.bytes_per_second = 0;
  SimNet net(m, 1, kMillisecond);
  Pinger pinger(1, 1);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.run_until(10 * kMicrosecond);
  ASSERT_EQ(recorder.deliveries.size(), 1u);
  EXPECT_EQ(recorder.deliveries[0].first, 100 + 1000 + 200 + 50);
}

TEST(SimNet, PerByteCostChargesTheSenderByFrameSize) {
  LatencyModel m = flat_model();
  m.bytes_per_second = 1e9;  // 1 GB/s: 1 ns per frame byte
  SimNet net(m, 1, kMillisecond);
  Pinger pinger(1, 3);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.run_until(10 * kMicrosecond);
  ASSERT_EQ(recorder.deliveries.size(), 3u);
  // A kPing frame is the bare 16-byte header, so each send now costs
  // trans_send + 16: departures at 116, 232, 348; arrivals 1116, 1232,
  // 1348; receiver processing (unchanged: the charge is sender-side)
  // serializes over [1116,1366), [1366,1616), [1616,1866).
  const std::size_t ping_bytes =
      wire::frame_size(Message(MsgType::kPing, ProtoId::kControl, 0, 1));
  ASSERT_EQ(ping_bytes, 16u);
  EXPECT_EQ(recorder.deliveries[0].first, 116 + 1000 + 250);
  EXPECT_EQ(recorder.deliveries[1].first, 1366 + 250);
  EXPECT_EQ(recorder.deliveries[2].first, 1616 + 250);
}

TEST(SimNet, PerByteCostScalesWithSlowdownLikeOtherCpuWork) {
  LatencyModel m = flat_model();
  m.bytes_per_second = 1e9;
  SimNet net(m, 1, kMillisecond);
  Pinger pinger(1, 1);
  Recorder recorder;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.slow_node(0, 0, kMillisecond, 10.0);  // sender 10x slow
  net.run_until(10 * kMicrosecond);
  ASSERT_EQ(recorder.deliveries.size(), 1u);
  // (trans_send + 16 bytes) x 10 = 1160, then prop + receive as usual.
  EXPECT_EQ(recorder.deliveries[0].first, 1160 + 1000 + 250);
}

TEST(SimNet, MessagesSentCountsBoundaryCrossingsOnly) {
  SimNet net(flat_model(), 1, kMillisecond);
  Pinger pinger(1, 4);
  Recorder recorder;
  recorder.reply_to = 0;
  net.add_node(&pinger);
  net.add_node(&recorder);
  net.run_until(kMillisecond);
  EXPECT_EQ(net.messages_sent(0), 4u);
  EXPECT_EQ(net.messages_sent(1), 4u);
  EXPECT_EQ(net.total_messages(), 8u);
}

}  // namespace
}  // namespace ci::sim
