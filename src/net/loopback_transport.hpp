// Real-socket Transport backend: UDP + framed TCP through an epoll reactor.
//
// One LoopbackTransport hosts N in-process endpoints, each bound to real
// sockets on 127.0.0.1 (ephemeral ports):
//
//   * kUnordered traffic rides UDP datagrams ([u32 from][payload]) — the
//     weak-read fast path tolerates loss and reordering, so datagrams map
//     exactly onto its semantics.
//   * kOrdered traffic rides length-prefixed framed TCP (tcp_framer.hpp),
//     one outbound connection per (from, to) pair, opened lazily on the
//     first send after the pair has none.
//
// An outbound connection ends one way: a connect error, a write error, peer
// EOF or a detach of either endpoint closes its fd, drops what it still
// queues (a half-written frame included, counted in
// `counters().dropped_teardown`) and erases it; the next send opens a fresh
// connection that starts on a frame boundary. The transport never retries:
// reliability is the protocols' job (IRMC retransmission, client retries).
//
// The delivery contract matches SimNetwork (see net/transport.hpp and the
// conformance battery in tests/test_transport.cpp): FIFO per (from, to)
// within a traffic class, refcounted multicast payloads (the payload buffer
// is shared by every connection's write queue — never copied, never
// mutated), silent drop to unknown ids, detach-drops-inflight (detach
// closes the endpoint's sockets, so kernel-buffered bytes die with them),
// and down-node drops at both send and dispatch.
//
// Write backpressure: each outbound connection buffers at most
// `kMaxQueueBytes` beyond what the kernel accepts; past that, new sends on
// that connection are dropped and counted (`counters().dropped_backpressure`)
// instead of growing without bound — fire-and-forget never blocks.
//
// Everything is single-threaded: send() enqueues to kernel buffers or user
// queues, poll(timeout) runs the reactor once — blocking at most `timeout`
// microseconds, exactly (epoll_pwait2) — and dispatches deliveries on the
// calling thread. Pair with net::RealtimeDriver to interleave the reactor
// with a World's virtual-time event queue.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/epoll_reactor.hpp"
#include "net/tcp_framer.hpp"
#include "net/transport.hpp"

namespace spider::net {

class LoopbackTransport final : public Transport {
 public:
  /// Per-connection user-space write-queue cap (bytes); beyond it sends
  /// on that connection are dropped, not buffered.
  static constexpr std::size_t kMaxQueueBytes = 8u * 1024 * 1024;

  LoopbackTransport();
  ~LoopbackTransport() override;

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  // ---- Transport ---------------------------------------------------------
  void attach(TransportEndpoint* ep) override;
  void detach(NodeId id) override;
  void send(NodeId from, NodeId to, Payload payload, TrafficClass cls) override;

  // ---- driving -----------------------------------------------------------
  /// Runs the reactor once: waits up to `timeout` (negative = block, zero =
  /// poll) for socket readiness, dispatches reads and writes, delivers
  /// complete messages to their endpoints. Returns the number of I/O events
  /// handled.
  std::size_t poll(std::chrono::microseconds timeout);

  // ---- introspection -----------------------------------------------------
  struct Counters {
    std::uint64_t udp_datagrams_sent = 0;
    std::uint64_t udp_datagrams_received = 0;
    std::uint64_t udp_send_failures = 0;  // kernel refused (buffer full, ...)
    std::uint64_t tcp_frames_sent = 0;    // enqueued onto a connection
    std::uint64_t tcp_frames_received = 0;
    std::uint64_t tcp_connects = 0;       // successful connection establishments
    std::uint64_t tcp_teardowns = 0;      // outbound connections ended (error, EOF, detach)
    std::uint64_t tcp_decode_errors = 0;  // framer violations -> connection closed
    std::uint64_t tcp_dirty_closes = 0;   // peer closed mid-frame
    std::uint64_t dropped_backpressure = 0;
    std::uint64_t dropped_oversize = 0;   // payload larger than a frame can carry
    std::uint64_t dropped_teardown = 0;   // frames queued on a torn-down connection
    std::uint64_t dropped_unknown_dest = 0;
    std::uint64_t dropped_down = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  [[nodiscard]] std::size_t attached_count() const { return endpoints_.size(); }
  [[nodiscard]] bool is_attached(NodeId id) const { return endpoints_.count(id) != 0; }

 private:
  struct Endpoint {
    TransportEndpoint* ep = nullptr;
    int udp_fd = -1;
    int listen_fd = -1;
    std::uint16_t udp_port = 0;
    std::uint16_t tcp_port = 0;
  };

  /// One queued ordered message: 8-byte prologue + refcounted payload.
  /// `off` advances across head.size() + body.size() as the kernel accepts
  /// bytes; the payload buffer itself is shared with every other
  /// destination of the same multicast.
  struct OutChunk {
    Bytes head;
    Payload body;
    std::size_t off = 0;
  };

  struct OutboundConn {
    NodeId from = 0;
    NodeId to = 0;
    int fd = -1;
    bool connected = false;
    bool out_armed = false;  // EPOLLOUT is in the fd's registered interest
    std::deque<OutChunk> queue;
    std::size_t queued_bytes = 0;
  };

  struct InboundConn {
    int fd = -1;
    NodeId to = 0;  // endpoint this connection delivers to
    FrameDecoder decoder;
  };

  void send_udp(NodeId from, NodeId to, const Payload& payload);
  void send_tcp(NodeId from, NodeId to, Payload payload);

  void start_connect(const std::shared_ptr<OutboundConn>& conn);
  void on_outbound_ready(const std::shared_ptr<OutboundConn>& conn, std::uint32_t events);
  void flush_outbound(const std::shared_ptr<OutboundConn>& conn);
  void tear_down(std::shared_ptr<OutboundConn> conn);

  void on_udp_readable(NodeId id);
  void on_accept(NodeId id);
  void on_inbound_readable(int fd);
  void close_inbound(int fd);

  void dispatch(NodeId from, NodeId to, Payload payload);
  void account_send(NodeId from, NodeId to, std::size_t bytes);

  EpollReactor reactor_;
  std::unordered_map<NodeId, Endpoint> endpoints_;
  std::map<std::pair<NodeId, NodeId>, std::shared_ptr<OutboundConn>> outbound_;
  std::unordered_map<int, std::unique_ptr<InboundConn>> inbound_;
  Counters counters_;
  std::vector<std::uint8_t> udp_buf_;
};

}  // namespace spider::net
