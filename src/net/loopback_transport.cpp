#include "net/loopback_transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace spider::net {

namespace {

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("getsockname failed");
  }
  return ntohs(addr.sin_port);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A deployment of N endpoints opens ~N^2 connection fds; make sure the
/// soft fd limit is not the bottleneck (best-effort, capped at the hard
/// limit).
void raise_fd_limit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  const rlim_t want = rl.rlim_max == RLIM_INFINITY
                          ? 65536
                          : std::min<rlim_t>(65536, rl.rlim_max);
  if (rl.rlim_cur < want) {
    rl.rlim_cur = want;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

bool would_block(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

/// UDP receive buffer request (best-effort; the kernel may clamp).
constexpr int kUdpRcvBuf = 1 << 22;

}  // namespace

LoopbackTransport::LoopbackTransport() {
  raise_fd_limit();
  udp_buf_.resize(64 * 1024);
}

LoopbackTransport::~LoopbackTransport() {
  // Every connection runs from or to an attached endpoint, so detaching
  // them all closes every fd and frees every queue.
  while (!endpoints_.empty()) detach(endpoints_.begin()->first);
}

void LoopbackTransport::attach(TransportEndpoint* ep) {
  const NodeId id = ep->id();
  if (endpoints_.count(id) != 0) {
    throw std::runtime_error("LoopbackTransport: duplicate attach");
  }

  Endpoint rec;
  rec.ep = ep;

  // UDP socket for unordered traffic.
  rec.udp_fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (rec.udp_fd < 0) throw std::runtime_error("udp socket() failed");
  ::setsockopt(rec.udp_fd, SOL_SOCKET, SO_RCVBUF, &kUdpRcvBuf, sizeof(kUdpRcvBuf));
  sockaddr_in addr = loopback_addr(0);
  if (::bind(rec.udp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(rec.udp_fd);
    throw std::runtime_error("udp bind() failed");
  }
  rec.udp_port = bound_port(rec.udp_fd);

  // TCP listener for ordered traffic.
  rec.listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (rec.listen_fd < 0) {
    ::close(rec.udp_fd);
    throw std::runtime_error("tcp socket() failed");
  }
  addr = loopback_addr(0);
  if (::bind(rec.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(rec.listen_fd, SOMAXCONN) != 0) {
    ::close(rec.udp_fd);
    ::close(rec.listen_fd);
    throw std::runtime_error("tcp bind/listen failed");
  }
  rec.tcp_port = bound_port(rec.listen_fd);

  reactor_.add(rec.udp_fd, EPOLLIN, [this, id](std::uint32_t) { on_udp_readable(id); });
  reactor_.add(rec.listen_fd, EPOLLIN, [this, id](std::uint32_t) { on_accept(id); });

  endpoints_.emplace(id, rec);
}

void LoopbackTransport::detach(NodeId id) {
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;

  // Closing the sockets is what makes detach drop in-flight traffic: bytes
  // already accepted by the kernel die with the fds, and a later attach()
  // binds fresh ports — a new incarnation no old sender still points at.
  Endpoint& rec = it->second;
  reactor_.remove(rec.udp_fd);
  ::close(rec.udp_fd);
  reactor_.remove(rec.listen_fd);
  ::close(rec.listen_fd);
  endpoints_.erase(it);

  // Inbound connections delivering to this endpoint.
  std::vector<int> stale;
  for (auto& [fd, conn] : inbound_) {
    if (conn->to == id) stale.push_back(fd);
  }
  for (int fd : stale) close_inbound(fd);

  // Outbound connections from or to this endpoint (queued messages die).
  std::vector<std::shared_ptr<OutboundConn>> gone;
  for (auto& [key, conn] : outbound_) {
    if (key.first == id || key.second == id) gone.push_back(conn);
  }
  for (auto& conn : gone) tear_down(conn);
}

void LoopbackTransport::send(NodeId from, NodeId to, Payload payload, TrafficClass cls) {
  if (endpoints_.count(from) == 0) return;  // sender already detached
  if (is_down(from) || is_down(to)) {
    ++counters_.dropped_down;
    return;
  }
  if (endpoints_.count(to) == 0) {
    ++counters_.dropped_unknown_dest;
    return;
  }
  account_send(from, to, payload.size());
  if (cls == TrafficClass::kUnordered) {
    send_udp(from, to, payload);
  } else {
    send_tcp(from, to, std::move(payload));
  }
}

void LoopbackTransport::account_send(NodeId from, NodeId to, std::size_t bytes) {
  const Site a = endpoints_.at(from).ep->site();
  const Site b = endpoints_.at(to).ep->site();
  PerNodeNetStats& ns = node_stats_[from];
  if (is_wan(a, b)) {  // same rule as the sim: WAN = cross-region
    stats_.wan_bytes += bytes;
    stats_.wan_msgs += 1;
    ns.sent_wan_bytes += bytes;
  } else {
    stats_.lan_bytes += bytes;
    stats_.lan_msgs += 1;
    ns.sent_lan_bytes += bytes;
  }
}

// ---- UDP (kUnordered) ----------------------------------------------------

void LoopbackTransport::send_udp(NodeId from, NodeId to, const Payload& payload) {
  const Endpoint& src = endpoints_.at(from);
  const Endpoint& dst = endpoints_.at(to);

  std::uint8_t header[4];
  write_le32(header, from);

  iovec iov[2];
  iov[0] = {header, sizeof(header)};
  int iovcnt = 1;
  if (!payload.empty()) {
    iov[1] = {const_cast<std::uint8_t*>(payload.data()), payload.size()};
    iovcnt = 2;
  }

  sockaddr_in addr = loopback_addr(dst.udp_port);
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);

  if (::sendmsg(src.udp_fd, &msg, 0) < 0) {
    ++counters_.udp_send_failures;  // best-effort channel: loss is legal
  } else {
    ++counters_.udp_datagrams_sent;
  }
}

void LoopbackTransport::on_udp_readable(NodeId id) {
  for (;;) {
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;  // detached by a delivery callback
    const ssize_t n = ::recv(it->second.udp_fd, udp_buf_.data(), udp_buf_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (or a transient error): wait for the next readiness event
    }
    if (n < 4) continue;  // malformed datagram: no sender header
    const NodeId from = read_le32(udp_buf_.data());
    ++counters_.udp_datagrams_received;
    Payload payload(Bytes(udp_buf_.begin() + 4, udp_buf_.begin() + n));
    dispatch(from, id, std::move(payload));
  }
}

// ---- TCP (kOrdered) ------------------------------------------------------

void LoopbackTransport::send_tcp(NodeId from, NodeId to, Payload payload) {
  std::optional<Bytes> head = frame_prologue(from, payload.size());
  if (!head) {
    ++counters_.dropped_oversize;  // fire-and-forget: nobody to throw to
    return;
  }

  std::shared_ptr<OutboundConn>& slot = outbound_[{from, to}];
  if (!slot) {
    slot = std::make_shared<OutboundConn>();
    slot->from = from;
    slot->to = to;
  }
  // A reference of our own: a failed connect or write below tears the
  // connection down, which erases `slot`.
  const std::shared_ptr<OutboundConn> conn = slot;

  const std::size_t sz = head->size() + payload.size();
  if (conn->queued_bytes + sz > kMaxQueueBytes) {
    ++counters_.dropped_backpressure;
    return;
  }
  conn->queue.push_back(OutChunk{std::move(*head), std::move(payload), 0});
  conn->queued_bytes += sz;
  ++counters_.tcp_frames_sent;

  if (conn->fd < 0) {
    start_connect(conn);  // no connection yet: this frame opens one
  } else if (conn->connected) {
    flush_outbound(conn);
  }
}

void LoopbackTransport::start_connect(const std::shared_ptr<OutboundConn>& conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) {
    tear_down(conn);
    return;
  }
  set_nodelay(conn->fd);

  // send() checked that the destination is attached.
  sockaddr_in addr = loopback_addr(endpoints_.at(conn->to).tcp_port);
  if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    tear_down(conn);
    return;
  }

  conn->out_armed = true;
  // EPOLLOUT completes the connect; EPOLLIN afterwards only ever signals
  // peer close (connections are unidirectional).
  std::weak_ptr<OutboundConn> weak = conn;
  reactor_.add(conn->fd, EPOLLOUT | EPOLLIN, [this, weak](std::uint32_t events) {
    if (auto c = weak.lock()) on_outbound_ready(c, events);
  });
}

void LoopbackTransport::on_outbound_ready(const std::shared_ptr<OutboundConn>& conn,
                                          std::uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    tear_down(conn);
    return;
  }

  if (!conn->connected) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      tear_down(conn);
      return;
    }
    conn->connected = true;
    ++counters_.tcp_connects;
    flush_outbound(conn);
    return;
  }

  if ((events & EPOLLIN) != 0) {
    // The peer never sends application data our way; readable means EOF.
    std::uint8_t scratch[256];
    const ssize_t n = ::recv(conn->fd, scratch, sizeof(scratch), 0);
    if (n == 0 || (n < 0 && !would_block(errno) && errno != EINTR)) {
      tear_down(conn);
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) flush_outbound(conn);
}

void LoopbackTransport::flush_outbound(const std::shared_ptr<OutboundConn>& conn) {
  while (!conn->queue.empty()) {
    OutChunk& c = conn->queue.front();
    const std::size_t total = c.head.size() + c.body.size();

    iovec iov[2];
    std::size_t iovcnt = 0;
    if (c.off < c.head.size()) {
      iov[iovcnt++] = {c.head.data() + c.off, c.head.size() - c.off};
    }
    const std::size_t body_off = c.off > c.head.size() ? c.off - c.head.size() : 0;
    if (body_off < c.body.size()) {
      iov[iovcnt++] = {const_cast<std::uint8_t*>(c.body.data()) + body_off,
                       c.body.size() - body_off};
    }

    // sendmsg, not writev, for MSG_NOSIGNAL: a write to a reset connection
    // must fail with EPIPE and tear the connection down, not raise SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (would_block(errno)) break;
      if (errno == EINTR) continue;
      tear_down(conn);
      return;
    }
    c.off += static_cast<std::size_t>(n);
    conn->queued_bytes -= static_cast<std::size_t>(n);
    if (c.off == total) conn->queue.pop_front();
  }
  // Ask for EPOLLOUT only while bytes wait; touch the interest set only
  // when that changes.
  const bool want_out = !conn->queue.empty();
  if (want_out != conn->out_armed) {
    conn->out_armed = want_out;
    reactor_.modify(conn->fd, EPOLLIN | (want_out ? static_cast<std::uint32_t>(EPOLLOUT) : 0u));
  }
}

// The one way an outbound connection ends. Whatever is still queued — a
// frame cut off mid-body included — is dropped with the record, so the
// pair's next send opens a fresh connection whose stream starts on a frame
// boundary.
void LoopbackTransport::tear_down(std::shared_ptr<OutboundConn> conn) {
  ++counters_.tcp_teardowns;
  counters_.dropped_teardown += conn->queue.size();
  if (conn->fd >= 0) {
    reactor_.remove(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
  }
  outbound_.erase({conn->from, conn->to});
}

void LoopbackTransport::on_accept(NodeId id) {
  for (;;) {
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    const int fd = ::accept4(it->second.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept error: try next wait
    set_nodelay(fd);
    auto conn = std::make_unique<InboundConn>();
    conn->fd = fd;
    conn->to = id;
    inbound_.emplace(fd, std::move(conn));
    reactor_.add(fd, EPOLLIN, [this, fd](std::uint32_t) { on_inbound_readable(fd); });
  }
}

void LoopbackTransport::on_inbound_readable(int fd) {
  for (;;) {
    auto it = inbound_.find(fd);
    if (it == inbound_.end()) return;  // closed by a delivery callback
    InboundConn& conn = *it->second;

    const ssize_t n = ::recv(fd, udp_buf_.data(), udp_buf_.size(), 0);
    if (n < 0) {
      if (would_block(errno)) return;
      if (errno == EINTR) continue;
      close_inbound(fd);
      return;
    }
    if (n == 0) {
      // Clean close only between frames; mid-frame EOF is a dirty close —
      // the partial message is discarded, never delivered.
      if (conn.decoder.mid_frame()) ++counters_.tcp_dirty_closes;
      close_inbound(fd);
      return;
    }

    const NodeId to = conn.to;
    conn.decoder.feed(BytesView(udp_buf_.data(), static_cast<std::size_t>(n)));
    // Drain complete frames. Re-look-up the connection every iteration:
    // a delivery callback may detach the endpoint and close this fd.
    for (;;) {
      auto again = inbound_.find(fd);
      if (again == inbound_.end() || again->second.get() != &conn) return;
      std::optional<Frame> f = conn.decoder.next();
      if (!f) break;
      ++counters_.tcp_frames_received;
      dispatch(f->from, to, Payload(std::move(f->payload)));
    }
    if (conn.decoder.failed()) {
      // Protocol violation from a (potentially Byzantine) peer: close the
      // connection. Its sender sees EOF and tears its side down.
      ++counters_.tcp_decode_errors;
      close_inbound(fd);
      return;
    }
    // A short read took what the socket held; the fd is level-triggered,
    // so bytes that arrive later are reported by the next wait.
    if (static_cast<std::size_t>(n) < udp_buf_.size()) return;
  }
}

void LoopbackTransport::close_inbound(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  reactor_.remove(fd);
  ::close(fd);
  inbound_.erase(it);
}

// ---- delivery ------------------------------------------------------------

void LoopbackTransport::dispatch(NodeId from, NodeId to, Payload payload) {
  auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return;
  if (is_down(to) || is_down(from)) {
    ++counters_.dropped_down;
    return;
  }
  node_stats_[to].recv_bytes += payload.size();
  it->second.ep->deliver(from, std::move(payload));
}

std::size_t LoopbackTransport::poll(std::chrono::microseconds timeout) {
  return reactor_.wait(timeout);
}

}  // namespace spider::net
