// One protocol node on one OS thread, owning a nonblocking TCP socket set —
// the net backend's deployment unit. Where RtNode's mesh is SPSC queues in
// shared memory, NetNode's is sockets: same engines, same wire::Codec frame
// bytes, plus a 4-byte length prefix per frame (net/framing.hpp) because a
// TCP stream has no slot boundaries.
//
// Lifecycle on the node thread:
//   1. listen (port_base + self, or ephemeral);
//   2. register with the registry and block for the full node -> endpoint
//      map (net/registry.hpp);
//   3. dial every lower-id peer / accept every higher-id peer, exchanging
//      MeshHello so the acceptor knows who dialed — listeners exist before
//      anyone registers, so dialing needs only bounded retry;
//   4. switch all links nonblocking, run the engine over a poll() loop:
//      recv -> reassemble -> decode -> on_message, tick every iteration,
//      flush per-link send rings (unless an IoPool owns flushing). Besides
//      the links, poll() watches the node's wake eventfd, so wake() from
//      any thread ends the wait at once instead of at its 1 ms timeout.
//
// Send path: wire::FrameWriter encodes straight into the link's SendRing
// (RingFrameWriter — the PR 7 zero-copy seam pointed at a socket); overflow
// frames go to a per-link backlog of encoded bytes and are promoted as the
// ring drains. A link whose peer vanished (EOF/ECONNRESET, or our own
// kill()) turns dead: sends to it are dropped, which is exactly the
// paper-faithful failure model — a killed node is silence, not an error.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "consensus/engine.hpp"
#include "consensus/wire_codec.hpp"
#include "net/endpoint.hpp"
#include "net/framing.hpp"
#include "net/registry.hpp"
#include "net/send_ring.hpp"
#include "net/socket.hpp"

namespace ci::net {

using consensus::Command;
using consensus::Engine;
using consensus::GroupId;
using consensus::Instance;
using consensus::Message;
using consensus::NodeId;

// Everything a node needs to find and join its mesh.
struct MeshConfig {
  Endpoint registry;
  std::int32_t total_nodes = 0;
  std::uint16_t port_base = 0;  // node i listens on port_base + i; 0 = ephemeral
  Nanos bootstrap_deadline = 20 * kSecond;
  std::size_t ring_bytes = 0;  // 0 = derive from wire::kMaxFrameBytes
};

// Send-ring capacity for a deployment's batch policy: several prefixed
// max-size frames, so group commit never falls off the zero-copy path just
// because one frame is in flight.
inline std::size_t ring_bytes_for(const consensus::BatchPolicy& policy) {
  const std::size_t frame = kLenPrefixBytes + wire::max_frame_bytes(policy);
  std::size_t cap = 1;
  while (cap < 4 * frame) cap <<= 1;
  return cap < (1u << 16) ? (1u << 16) : cap;
}

class IoPool;

class NetNode {
 public:
  // Peers occupy ids [0, cfg.total_nodes). `pool` may be null (the node
  // thread flushes its own rings); a non-null pool takes over flushing once
  // the mesh is up.
  NetNode(NodeId self, Engine* engine, const MeshConfig& cfg, IoPool* pool);
  ~NetNode();

  NetNode(const NetNode&) = delete;
  NetNode& operator=(const NetNode&) = delete;

  void start();
  // Also wakes the poll loop, so the thread sees the flag at once.
  void request_stop();
  void join();

  // Ends the node thread's current poll() wait (or the next one) so it
  // ticks the engine now — the client doorbell for a co-hosted session.
  // Any thread, any time while the node object lives; never blocks, and
  // repeated wakes before the loop drains them collapse into one.
  void wake();

  // How many poll() returns found the wake fd readable.
  std::uint64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }

  // Fault injection: drop every socket and stop the node, from the peers'
  // point of view indistinguishable from the process dying. Commands the
  // node acked before the kill are already replicated (that is what an ack
  // means), which the net fault suite asserts end to end. Wakes the poll
  // loop like request_stop().
  void kill();

  // Fault injection: queues raw stream bytes on the link to `peer`, behind
  // the frames already queued there — bad input the peer's decoder must
  // survive. Any thread; the node thread writes them on its next loop.
  void inject_raw(NodeId peer, std::vector<unsigned char> bytes);

  // Frames this node refused: a length prefix out of bounds or a frame the
  // codec rejects. Each costs the link it arrived on, which is marked dead
  // (sends to that peer are dropped from then on); the node keeps running.
  std::uint64_t bad_frames() const { return bad_frames_.load(std::memory_order_relaxed); }

  // Mesh is up and the engine has started (set on the node thread).
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  // Runs on the node thread after the mesh is up, before engine start; the
  // one place broadcast() may be called from outside an engine handler.
  void set_on_ready(std::function<void(NetNode&)> hook) { on_ready_ = std::move(hook); }

  // Fan-out on the encode-once path: encodes `m` a single time, then stamps
  // each target's dst/group into the frame header copy it enqueues — the
  // registry map's sibling at the data layer, used for the cluster's kStart
  // release. Node-thread only (on_ready or an engine handler).
  void broadcast(const Message& m,
                 const std::vector<std::pair<GroupId, NodeId>>& targets);

  // Same portable slow-core injection as RtNode: every message (and tick)
  // costs an extra (factor-1) x 500ns sleep.
  void set_slow_factor(std::uint32_t factor) {
    slow_factor_.store(factor == 0 ? 1 : factor, std::memory_order_relaxed);
  }

  // Same clock-skew injection as RtNode (see rt/rt_node.hpp for the anchor
  // math and why relaxed ordering is enough).
  void stretch_clock(double rate) {
    const Nanos t = now_nanos();
    const double old_rate = clock_rate_.load(std::memory_order_relaxed);
    const Nanos anchor_real = clock_anchor_real_.load(std::memory_order_relaxed);
    const Nanos anchor_seen = clock_anchor_seen_.load(std::memory_order_relaxed);
    const Nanos seen_now =
        anchor_seen +
        static_cast<Nanos>(static_cast<double>(t - anchor_real) * old_rate);
    clock_anchor_real_.store(t, std::memory_order_relaxed);
    clock_anchor_seen_.store(seen_now, std::memory_order_relaxed);
    clock_rate_.store(rate, std::memory_order_relaxed);
  }

  NodeId id() const { return self_; }
  std::uint64_t messages_sent() const { return ctx_->sent.load(std::memory_order_relaxed); }
  // Actual socket bytes behind messages_sent(): frame bytes PLUS the length
  // prefix per frame — what a packet capture would count.
  std::uint64_t bytes_sent() const { return ctx_->sent_bytes.load(std::memory_order_relaxed); }

  // Consumer half of every link's SendRing; called by the node thread each
  // poll iteration, or by the IoPool worker owning this node.
  void flush_rings();

 private:
  class Ctx final : public consensus::Context {
   public:
    explicit Ctx(NetNode* node) : node_(node) {}
    NodeId self() const override { return node_->self_; }
    Nanos now() const override {
      const Nanos t = now_nanos();
      const double rate = node_->clock_rate_.load(std::memory_order_relaxed);
      if (rate == 1.0) return t;
      const Nanos anchor_real = node_->clock_anchor_real_.load(std::memory_order_relaxed);
      const Nanos anchor_seen = node_->clock_anchor_seen_.load(std::memory_order_relaxed);
      return anchor_seen +
             static_cast<Nanos>(static_cast<double>(t - anchor_real) * rate);
    }
    void send(NodeId dst, const Message& m) override { node_->send(dst, m); }
    // Delivery reporting happens in the GroupDemuxEngine hosted on every
    // node (core::Cluster's hook logs per node thread), same as rt.
    void deliver(Instance, const Command&) override {}

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> sent_bytes{0};

   private:
    NetNode* node_;
  };

  struct Link {
    Socket sock;
    std::unique_ptr<SendRing> ring;
    std::deque<std::vector<unsigned char>> backlog;  // prefixed frames awaiting ring space
    FrameReassembler reasm;
    std::atomic<bool> dead{false};

    explicit Link(std::size_t ring_bytes, std::uint32_t max_frame)
        : ring(std::make_unique<SendRing>(ring_bytes)), reasm(max_frame) {}
  };

  void thread_main();
  bool bootstrap();
  void poll_loop();
  void recv_link(NodeId peer);
  void handle_frame(Link* l, const unsigned char* p, std::uint32_t len);
  void reject_link(Link* l);
  void write_injected();
  void send(NodeId dst, const Message& m);
  void enqueue_bytes(NodeId dst, const unsigned char* p, std::size_t n);
  void promote_backlogs();
  void drain_self_queue();
  void maybe_stall();

  NodeId self_;
  Engine* engine_;
  MeshConfig cfg_;
  IoPool* pool_;
  std::size_t ring_bytes_;

  std::unique_ptr<Ctx> ctx_;
  std::vector<std::unique_ptr<Link>> links_;  // index = peer id; self = null
  std::vector<unsigned char> rbuf_;           // recv scratch, node thread only
  Socket wake_fd_;                            // eventfd behind wake()
  std::deque<Message> self_queue_;            // deferred self-sends (no reentrancy)
  std::function<void(NetNode&)> on_ready_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> ready_{false};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::mutex injected_mu_;
  std::vector<std::pair<NodeId, std::vector<unsigned char>>> injected_;
  std::atomic<std::uint32_t> slow_factor_{1};
  std::atomic<Nanos> clock_anchor_real_{0};
  std::atomic<Nanos> clock_anchor_seen_{0};
  std::atomic<double> clock_rate_{1.0};
};

// Dedicated socket-flusher threads (`--net-io-threads`): each worker drains
// the send rings of the nodes it owns (node id modulo worker count — a
// stable partition, so every ring keeps exactly one consumer and the SPSC
// contract holds). Nodes register after their mesh is up and deregister
// before closing any socket; remove() takes the writer lock, so it returns
// only once no worker is mid-flush on the departing node.
class IoPool {
 public:
  explicit IoPool(std::int32_t threads);
  ~IoPool();

  IoPool(const IoPool&) = delete;
  IoPool& operator=(const IoPool&) = delete;

  void add(NetNode* node);
  void remove(NetNode* node);

 private:
  void worker(std::size_t idx);

  std::size_t nthreads_;
  std::shared_mutex mu_;
  std::vector<NetNode*> nodes_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

}  // namespace ci::net
