#include "net/net_node.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/check.hpp"

namespace ci::net {

namespace {

// recv scratch per node: big enough that a busy link drains in few
// syscalls, small enough that a node's footprint stays modest.
constexpr std::size_t kRecvBufBytes = 64 * 1024;

}  // namespace

NetNode::NetNode(NodeId self, Engine* engine, const MeshConfig& cfg, IoPool* pool)
    : self_(self),
      engine_(engine),
      cfg_(cfg),
      pool_(pool),
      ring_bytes_(cfg.ring_bytes != 0
                      ? cfg.ring_bytes
                      : kLenPrefixBytes + wire::kMaxFrameBytes),
      ctx_(std::make_unique<Ctx>(this)),
      links_(static_cast<std::size_t>(cfg.total_nodes)),
      rbuf_(kRecvBufBytes),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  CI_CHECK(self >= 0 && self < cfg.total_nodes);
  CI_CHECK_MSG(wake_fd_.valid(), "cannot create the node's wake eventfd");
}

NetNode::~NetNode() {
  request_stop();
  join();
}

void NetNode::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void NetNode::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake();
}

void NetNode::join() {
  if (thread_.joinable()) thread_.join();
}

void NetNode::kill() {
  killed_.store(true, std::memory_order_relaxed);
  wake();
}

void NetNode::wake() {
  // Nonblocking add to the eventfd counter: EAGAIN only at a counter of
  // 2^64 - 2, which a pending wake already makes readable.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.fd(), &one, sizeof(one));
}

bool NetNode::bootstrap() {
  const Nanos deadline = now_nanos() + cfg_.bootstrap_deadline;

  // 1. Listen before registering: the map must never name an endpoint
  //    without a live listener behind it.
  const std::uint16_t want_port =
      cfg_.port_base == 0 ? 0
                          : static_cast<std::uint16_t>(cfg_.port_base + self_);
  std::uint16_t bound_port = 0;
  Socket listener = tcp_listen(Endpoint{"0.0.0.0", want_port}, &bound_port,
                               std::max(16, cfg_.total_nodes));
  if (!listener.valid()) return false;

  // 2. Register and block for the full node -> endpoint map.
  std::vector<Endpoint> map;
  if (!fetch_map(cfg_.registry, self_, bound_port, deadline, &stop_, &map)) return false;
  if (static_cast<std::int32_t>(map.size()) != cfg_.total_nodes) return false;

  const auto max_frame = static_cast<std::uint32_t>(wire::kMaxFrameBytes);

  // 3a. Dial every lower-id peer (their listeners pre-exist).
  for (NodeId peer = 0; peer < self_; ++peer) {
    Socket s = tcp_dial(map[static_cast<std::size_t>(peer)], deadline, &stop_);
    if (!s.valid()) return false;
    MeshHello hello;
    hello.node = self_;
    if (!write_full(s.fd(), &hello, sizeof(hello), deadline, &stop_)) return false;
    auto link = std::make_unique<Link>(ring_bytes_, max_frame);
    link->sock = std::move(s);
    links_[static_cast<std::size_t>(peer)] = std::move(link);
  }

  // 3b. Accept every higher-id peer; MeshHello tells us who dialed.
  std::int32_t expected = cfg_.total_nodes - 1 - self_;
  while (expected > 0) {
    if (now_nanos() >= deadline || stop_.load(std::memory_order_relaxed) ||
        killed_.load(std::memory_order_relaxed)) {
      return false;
    }
    pollfd pfd{listener.fd(), POLLIN, 0};
    const int r = ::poll(&pfd, 1, 10);
    if (r < 0 && errno != EINTR) return false;
    if (r <= 0) continue;
    Socket s(::accept(listener.fd(), nullptr, nullptr));
    if (!s.valid()) continue;
    MeshHello hello{};
    if (!read_full(s.fd(), &hello, sizeof(hello), now_nanos() + 2 * kSecond, &stop_)) {
      continue;  // a half-open dialer; it will retry
    }
    const NodeId peer = hello.node;
    if (hello.magic != kMeshHelloMagic || peer <= self_ || peer >= cfg_.total_nodes) {
      continue;
    }
    if (links_[static_cast<std::size_t>(peer)] != nullptr) continue;  // duplicate dial
    auto link = std::make_unique<Link>(ring_bytes_, max_frame);
    link->sock = std::move(s);
    links_[static_cast<std::size_t>(peer)] = std::move(link);
    --expected;
  }

  // 4. Steady state: everything nonblocking, listener gone.
  for (auto& link : links_) {
    if (link == nullptr) continue;
    if (!set_nonblocking(link->sock.fd())) return false;
    set_nodelay(link->sock.fd());
  }
  return true;
}

void NetNode::thread_main() {
  if (bootstrap()) {
    if (pool_ != nullptr) pool_->add(this);
    ready_.store(true, std::memory_order_release);
    if (on_ready_) on_ready_(*this);
    poll_loop();
    if (pool_ != nullptr) pool_->remove(this);
  } else {
    // A node that cannot join its mesh within the deadline is a deployment
    // error — unless it was stopped/killed mid-bootstrap, which is routine.
    CI_CHECK_MSG(stop_.load(std::memory_order_relaxed) ||
                     killed_.load(std::memory_order_relaxed),
                 "net mesh bootstrap failed");
  }
  // Drop every socket: to the peers this is EOF, exactly a process death.
  for (auto& link : links_) {
    if (link == nullptr) continue;
    link->dead.store(true, std::memory_order_relaxed);
    link->sock.close();
  }
  // Pooled bodies are thread-local; anything parked in the self queue goes
  // back to this thread's pool before the thread exits.
  for (const Message& m : self_queue_) wire::release_body(m);
  self_queue_.clear();
}

void NetNode::poll_loop() {
  engine_->start(*ctx_);
  drain_self_queue();

  // pfds[0] is the wake fd, so the set is never empty: a node whose links
  // are all dead (partitioned, or everyone else stopped) keeps ticking on
  // the timeout, and a co-hosted client can time out gracefully.
  std::vector<pollfd> pfds;
  std::vector<NodeId> pfd_peer;
  while (!stop_.load(std::memory_order_relaxed) &&
         !killed_.load(std::memory_order_relaxed)) {
    pfds.assign(1, pollfd{wake_fd_.fd(), POLLIN, 0});
    pfd_peer.assign(1, consensus::kNoNode);
    for (NodeId peer = 0; peer < cfg_.total_nodes; ++peer) {
      Link* l = links_[static_cast<std::size_t>(peer)].get();
      if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
      short events = POLLIN;
      // Self-flushing nodes wait for writability only while bytes are
      // pending; an IoPool owns flushing otherwise.
      if (pool_ == nullptr && (l->ring->readable() > 0 || !l->backlog.empty())) {
        events |= POLLOUT;
      }
      pfds.push_back(pollfd{l->sock.fd(), events, 0});
      pfd_peer.push_back(peer);
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 1);
    if (pfds[0].revents & POLLIN) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n = ::read(wake_fd_.fd(), &count, sizeof(count));
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      write_injected();
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) recv_link(pfd_peer[i]);
    }
    maybe_stall();
    engine_->tick(*ctx_);
    drain_self_queue();
    promote_backlogs();
    if (pool_ == nullptr) flush_rings();
  }
}

void NetNode::recv_link(NodeId peer) {
  Link* l = links_[static_cast<std::size_t>(peer)].get();
  const ssize_t n = ::recv(l->sock.fd(), rbuf_.data(), rbuf_.size(), 0);
  if (n == 0) {
    l->dead.store(true, std::memory_order_relaxed);  // peer closed (or died)
    return;
  }
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      l->dead.store(true, std::memory_order_relaxed);
    }
    return;
  }
  const bool ok = l->reasm.feed(
      rbuf_.data(), static_cast<std::size_t>(n),
      [this, l](const unsigned char* p, std::uint32_t len) { handle_frame(l, p, len); });
  // A bounds-violating length means the stream is corrupt beyond resync.
  if (!ok && !l->dead.load(std::memory_order_relaxed)) reject_link(l);
}

// Bad bytes cost the connection they came on, never the process: the peer
// that sent them is faulty or the stream is corrupt, and either way nothing
// after them on this link can be trusted. The shutdown hands the peer an
// EOF, so its end of the link goes dead too instead of queueing frames no
// one reads. The engines see silence, which their failure detectors
// already handle.
void NetNode::reject_link(Link* l) {
  bad_frames_.fetch_add(1, std::memory_order_relaxed);
  l->dead.store(true, std::memory_order_relaxed);
  ::shutdown(l->sock.fd(), SHUT_RDWR);
}

void NetNode::handle_frame(Link* l, const unsigned char* p, std::uint32_t len) {
  if (l->dead.load(std::memory_order_relaxed)) return;  // rest of a rejected recv
  Message m;
  if (!wire::try_decode(p, len, &m)) {
    reject_link(l);
    return;
  }
  maybe_stall();
  engine_->on_message(*ctx_, m);
  wire::release_body(m);  // decode allocated any pooled body
  drain_self_queue();
}

void NetNode::send(NodeId dst, const Message& m) {
  if (dst == self_) {
    // Defer: engines are not reentrant. The copy shares the message's
    // pooled body; custody moves to the self queue and drain_self_queue
    // releases it after delivery.
    Message out = m;
    out.src = self_;
    out.dst = dst;
    self_queue_.push_back(out);
    return;
  }
  Link* l = dst >= 0 && dst < cfg_.total_nodes ? links_[static_cast<std::size_t>(dst)].get()
                                               : nullptr;
  if (l == nullptr || l->dead.load(std::memory_order_relaxed)) {
    // The peer is gone. Dropping is the correct failure model: a dead node
    // is silence, and retry/failure-detection lives in the engines.
    wire::release_body(m);
    return;
  }
  const auto n = static_cast<std::uint32_t>(wire::frame_size(m));
  ctx_->sent.fetch_add(1, std::memory_order_relaxed);
  ctx_->sent_bytes.fetch_add(kLenPrefixBytes + n, std::memory_order_relaxed);
  if (l->backlog.empty() && l->ring->free() >= kLenPrefixBytes + n) {
    // Fast path: prefix + frame encode straight into the send ring — each
    // field byte moves exactly once, engine memory to ring, with src/dst
    // stamped mid-flight.
    RingFrameWriter w(l->ring.get(), n);
    const std::uint32_t written = wire::encode_into(m, w, self_, dst);
    CI_CHECK(written == n);
    w.finish();
    wire::release_body(m);  // send() consumes the message's pooled body
    return;
  }
  // Ring full (or older frames still waiting): encode into the FIFO
  // backlog instead; promote_backlogs replays the finished bytes.
  alignas(Message) unsigned char buf[kLenPrefixBytes + wire::kMaxFrameBytes];
  put_len_prefix(buf, n);
  wire::BufferWriter w(buf + kLenPrefixBytes);
  const std::uint32_t written = wire::encode_into(m, w, self_, dst);
  CI_CHECK(written == n);
  wire::release_body(m);
  l->backlog.emplace_back(buf, buf + kLenPrefixBytes + n);
}

void NetNode::broadcast(const Message& m,
                        const std::vector<std::pair<GroupId, NodeId>>& targets) {
  // Encode ONCE, then stamp each target's dst/group into the frame bytes
  // before enqueueing — one codec pass no matter how wide the fan-out
  // (the cluster's kStart release and kOpxWindowBody-style bodies).
  alignas(Message) unsigned char buf[kLenPrefixBytes + wire::kMaxFrameBytes];
  const auto n = static_cast<std::uint32_t>(wire::frame_size(m));
  put_len_prefix(buf, n);
  wire::BufferWriter w(buf + kLenPrefixBytes);
  const std::uint32_t written = wire::encode_into(m, w, self_, m.dst);
  CI_CHECK(written == n);
  wire::release_body(m);
  for (const auto& [g, dst] : targets) {
    CI_CHECK(dst != self_ && dst >= 0 && dst < cfg_.total_nodes);
    const std::int32_t dv = dst;
    const std::int32_t gv = g;
    std::memcpy(buf + kLenPrefixBytes + offsetof(Message, dst), &dv, sizeof(dv));
    std::memcpy(buf + kLenPrefixBytes + offsetof(Message, group), &gv, sizeof(gv));
    enqueue_bytes(dst, buf, kLenPrefixBytes + n);
  }
}

void NetNode::enqueue_bytes(NodeId dst, const unsigned char* p, std::size_t n) {
  Link* l = links_[static_cast<std::size_t>(dst)].get();
  if (l == nullptr || l->dead.load(std::memory_order_relaxed)) return;
  ctx_->sent.fetch_add(1, std::memory_order_relaxed);
  ctx_->sent_bytes.fetch_add(n, std::memory_order_relaxed);
  if (l->backlog.empty() && l->ring->free() >= n) {
    l->ring->push(p, n);
  } else {
    l->backlog.emplace_back(p, p + n);
  }
}

void NetNode::inject_raw(NodeId peer, std::vector<unsigned char> bytes) {
  CI_CHECK(peer != self_ && peer >= 0 && peer < cfg_.total_nodes);
  {
    std::lock_guard<std::mutex> lock(injected_mu_);
    injected_.emplace_back(peer, std::move(bytes));
  }
  wake();
}

void NetNode::write_injected() {
  std::vector<std::pair<NodeId, std::vector<unsigned char>>> batch;
  {
    std::lock_guard<std::mutex> lock(injected_mu_);
    batch.swap(injected_);
  }
  for (const auto& [peer, bytes] : batch) enqueue_bytes(peer, bytes.data(), bytes.size());
}

void NetNode::promote_backlogs() {
  for (auto& link : links_) {
    Link* l = link.get();
    if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
    while (!l->backlog.empty() && l->ring->free() >= l->backlog.front().size()) {
      const auto& frame = l->backlog.front();
      l->ring->push(frame.data(), frame.size());
      l->backlog.pop_front();
    }
  }
}

void NetNode::flush_rings() {
  for (auto& link : links_) {
    Link* l = link.get();
    if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
    for (;;) {
      std::size_t n = 0;
      const unsigned char* p = l->ring->peek(&n);
      if (n == 0) break;
      const ssize_t put = ::send(l->sock.fd(), p, n, MSG_NOSIGNAL);
      if (put > 0) {
        l->ring->consume(static_cast<std::size_t>(put));
        if (static_cast<std::size_t>(put) < n) break;  // kernel buffer full
        continue;
      }
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
      l->dead.store(true, std::memory_order_relaxed);  // EPIPE/ECONNRESET: peer gone
      break;
    }
  }
}

void NetNode::drain_self_queue() {
  while (!self_queue_.empty()) {
    const Message m = self_queue_.front();
    self_queue_.pop_front();
    engine_->on_message(*ctx_, m);
    wire::release_body(m);
  }
}

void NetNode::maybe_stall() {
  const std::uint32_t f = slow_factor_.load(std::memory_order_relaxed);
  if (f <= 1) return;
  // Sleep, don't spin — same reasoning as RtNode::maybe_stall: a busy-wait
  // on an oversubscribed machine would slow the healthy nodes too.
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<Nanos>(f - 1) * 500));
}

IoPool::IoPool(std::int32_t threads) : nthreads_(static_cast<std::size_t>(threads)) {
  CI_CHECK(threads > 0);
  for (std::int32_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker(static_cast<std::size_t>(i)); });
  }
}

IoPool::~IoPool() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

void IoPool::add(NetNode* node) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  nodes_.push_back(node);
}

void IoPool::remove(NetNode* node) {
  // Writer lock: returns only once no worker is mid-flush on the departing
  // node, so the caller may close its sockets afterwards.
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    if (*it == node) {
      nodes_.erase(it);
      break;
    }
  }
}

void IoPool::worker(std::size_t idx) {
  const std::size_t stride = nthreads_;
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (NetNode* n : nodes_) {
        // Stable id-based partition: exactly one worker ever consumes a
        // given node's rings, preserving the SPSC contract.
        if (static_cast<std::size_t>(n->id()) % stride == idx) n->flush_rings();
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace ci::net
