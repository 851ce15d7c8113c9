// The poll loop's wake fd: NetNode::wake() ends a poll() from any thread,
// repeated wakes collapse without blocking, stop/kill still work with a
// wake pending, and a net session's submit rings it as its doorbell. Every
// check is an event count; the deadlines only keep a broken build from
// hanging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "client/service_client.hpp"
#include "net/net_node.hpp"
#include "net/registry.hpp"

namespace ci::net {
namespace {

constexpr Nanos kDeadline = 20 * kSecond;

// Counts ticks; never sends, so a one-node mesh sees no socket traffic.
class TickCounter final : public consensus::Engine {
 public:
  void on_message(consensus::Context&, const Message&) override {}
  void tick(consensus::Context&) override { ticks.fetch_add(1, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> ticks{0};
};

// A mesh of one node: after bootstrap its poll set holds only the wake fd.
struct SoloNode {
  Registry registry{Endpoint{"127.0.0.1", 0}, 1};
  TickCounter engine;
  std::unique_ptr<NetNode> node;

  SoloNode() {
    MeshConfig mesh;
    mesh.registry = registry.endpoint();
    mesh.total_nodes = 1;
    node = std::make_unique<NetNode>(0, &engine, mesh, nullptr);
  }
};

bool wait_for(const std::function<bool()>& pred) {
  const Nanos deadline = now_nanos() + kDeadline;
  while (!pred()) {
    if (now_nanos() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(NetWake, WakeFromAnotherThreadEndsAQuietPoll) {
  SoloNode s;
  ASSERT_TRUE(s.registry.ok());
  s.node->start();
  ASSERT_TRUE(wait_for([&] { return s.node->ready() && s.engine.ticks.load() > 0; }));
  EXPECT_EQ(s.node->wakeups(), 0u);
  std::thread waker([&] { s.node->wake(); });
  waker.join();
  EXPECT_TRUE(wait_for([&] { return s.node->wakeups() >= 1; }))
      << "the poll loop never saw the wake fd readable";
  s.node->request_stop();
  s.node->join();
}

TEST(NetWake, TenThousandUndrainedWakesNeitherBlockNorLoseATick) {
  SoloNode s;
  ASSERT_TRUE(s.registry.ok());
  // The node thread is not running yet, so nothing drains the eventfd.
  for (int i = 0; i < 10000; ++i) s.node->wake();
  s.node->start();
  ASSERT_TRUE(wait_for([&] { return s.node->ready() && s.engine.ticks.load() > 0; }));
  const std::uint64_t ticks = s.engine.ticks.load();
  EXPECT_TRUE(wait_for([&] { return s.engine.ticks.load() >= ticks + 10; }))
      << "the loop stopped ticking after the drain";
  EXPECT_EQ(s.node->wakeups(), 1u) << "10^4 pending wakes drain as one";
  s.node->request_stop();
  s.node->join();
}

TEST(NetWake, StopAndKillWorkWithAWakePending) {
  SoloNode stopped;
  SoloNode killed;
  ASSERT_TRUE(stopped.registry.ok());
  ASSERT_TRUE(killed.registry.ok());
  stopped.node->start();
  killed.node->start();
  ASSERT_TRUE(wait_for([&] { return stopped.node->ready() && killed.node->ready(); }));
  for (int i = 0; i < 3; ++i) {
    stopped.node->wake();
    killed.node->wake();
  }
  stopped.node->request_stop();
  killed.node->kill();
  stopped.node->join();
  killed.node->join();
  // A node that never started, destroyed with a wake pending.
  SoloNode idle;
  idle.node->wake();
}

std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

client::ServiceClient::Options net_opts() {
  client::ServiceClient::Options o;
  o.backend = core::Backend::kNet;
  o.spec.apply_backend_profile(core::Backend::kNet);
  o.spec.protocol = core::Protocol::kMultiPaxos;
  return o;
}

TEST(NetWake, ServiceClientsCloseTheirWakeFds) {
  const std::size_t before = open_fds();
  for (int i = 0; i < 10; ++i) {
    client::ServiceClient svc(net_opts());
    EXPECT_EQ(svc.session(0).execute(consensus::Op::kWrite, 1, 10 + i), 0u);
  }
  EXPECT_EQ(open_fds(), before);
}

TEST(NetWake, LoneNetWriteRingsTheDoorbell) {
  client::ServiceClient svc(net_opts());
  client::Session& s = svc.session(0);
  client::AsyncClientEngine& eng = s.group_client(0);
  EXPECT_EQ(eng.doorbells(), 0u);
  EXPECT_EQ(s.execute(consensus::Op::kWrite, 5, 50), 0u);
  EXPECT_EQ(eng.doorbells(), 1u);
  EXPECT_EQ(s.execute(consensus::Op::kRead, 5, 0), 50u);
  EXPECT_EQ(eng.doorbells(), 2u);
}

}  // namespace
}  // namespace ci::net
