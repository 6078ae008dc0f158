// Transport conformance battery: the delivery contract documented in
// net/transport.hpp, run against BOTH backends — the deterministic sim
// (SimNetwork) and the real-socket epoll backend (LoopbackTransport).
// Whatever protocol code may assume about message delivery is pinned here;
// a backend that cannot pass this battery cannot host the protocol stack.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/epoll_reactor.hpp"
#include "net/loopback_transport.hpp"
#include "net/transport.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

using namespace std::chrono_literals;

constexpr Site kVirginiaA{Region::Virginia, 0};
constexpr Site kVirginiaB{Region::Virginia, 1};
constexpr Site kIreland{Region::Ireland, 0};

Payload make_payload(std::string s) { return Payload(to_bytes(s)); }

std::string as_string(const Payload& p) { return to_string(p.view()); }

/// Bare endpoint that records everything delivered to it.
class RecordingEndpoint final : public TransportEndpoint {
 public:
  RecordingEndpoint(NodeId id, Site site) : id_(id), site_(site) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] Site site() const override { return site_; }
  void deliver(NodeId from, Payload data) override {
    received.emplace_back(from, std::move(data));
  }

  [[nodiscard]] std::vector<std::string> messages_from(NodeId from) const {
    std::vector<std::string> out;
    for (const auto& [f, p] : received) {
      if (f == from) out.push_back(as_string(p));
    }
    return out;
  }

  std::vector<std::pair<NodeId, Payload>> received;

 private:
  NodeId id_;
  Site site_;
};

/// One backend under test: exposes the Transport and a way to let traffic
/// settle. The sim settles by running virtual time; the socket backend by
/// pumping the reactor against the wall clock.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Transport& transport() = 0;
  /// Pumps the backend until `pred()` holds or the budget is exhausted.
  virtual bool settle(const std::function<bool()>& pred) = 0;
  /// Convenience: pump for a while with no particular goal (used to show
  /// that something does NOT arrive).
  virtual void settle_quiet() = 0;
  /// The sim delivers the same refcounted buffer it was handed; the socket
  /// backend necessarily reconstructs payloads from stream bytes.
  [[nodiscard]] virtual bool delivers_shared_buffers() const = 0;
};

class SimBackend final : public Backend {
 public:
  SimBackend() : world_(12345) {}

  Transport& transport() override { return world_.net(); }

  bool settle(const std::function<bool()>& pred) override {
    for (int i = 0; i < 2000 && !pred(); ++i) world_.run_for(10 * kMillisecond);
    return pred();
  }

  void settle_quiet() override { world_.run_for(5 * kSecond); }

  [[nodiscard]] bool delivers_shared_buffers() const override { return true; }

 private:
  World world_;
};

class LoopbackBackend final : public Backend {
 public:
  Transport& transport() override { return net_; }

  bool settle(const std::function<bool()>& pred) override {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred() && std::chrono::steady_clock::now() < deadline) net_.poll(1ms);
    return pred();
  }

  void settle_quiet() override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < deadline) net_.poll(1ms);
  }

  [[nodiscard]] bool delivers_shared_buffers() const override { return false; }

  net::LoopbackTransport& loopback() { return net_; }

 private:
  net::LoopbackTransport net_;
};

enum class BackendKind { kSim, kLoopback };

std::unique_ptr<Backend> make_backend(BackendKind kind) {
  if (kind == BackendKind::kSim) return std::make_unique<SimBackend>();
  return std::make_unique<LoopbackBackend>();
}

class TransportConformance : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override { backend_ = make_backend(GetParam()); }

  Transport& net() { return backend_->transport(); }
  Backend& backend() { return *backend_; }

 private:
  std::unique_ptr<Backend> backend_;
};

// ---- basic delivery ------------------------------------------------------

TEST_P(TransportConformance, DeliversBothTrafficClasses) {
  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net().attach(&a);
  net().attach(&b);

  net().send(1, 2, make_payload("ordered"), TrafficClass::kOrdered);
  net().send(1, 2, make_payload("unordered"), TrafficClass::kUnordered);

  ASSERT_TRUE(backend().settle([&] { return b.received.size() == 2; }))
      << "both classes must reach an attached endpoint";
  std::vector<std::string> got;
  for (auto& [from, p] : b.received) {
    EXPECT_EQ(from, 1u);
    got.push_back(as_string(p));
  }
  EXPECT_TRUE((got == std::vector<std::string>{"ordered", "unordered"}) ||
              (got == std::vector<std::string>{"unordered", "ordered"}))
      << "cross-class order is unspecified, content must survive intact";

  net().detach(1);
  net().detach(2);
}

TEST_P(TransportConformance, OrderedTrafficIsFifoPerSenderPair) {
  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB), c(3, kVirginiaA);
  net().attach(&a);
  net().attach(&b);
  net().attach(&c);

  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    net().send(1, 3, make_payload("a" + std::to_string(i)), TrafficClass::kOrdered);
    net().send(2, 3, make_payload("b" + std::to_string(i)), TrafficClass::kOrdered);
  }

  ASSERT_TRUE(backend().settle([&] { return c.received.size() == 2 * kN; }));
  std::vector<std::string> from_a = c.messages_from(1);
  std::vector<std::string> from_b = c.messages_from(2);
  ASSERT_EQ(from_a.size(), static_cast<std::size_t>(kN));
  ASSERT_EQ(from_b.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(from_a[static_cast<std::size_t>(i)], "a" + std::to_string(i))
        << "FIFO violated on (1 -> 3) at index " << i;
    EXPECT_EQ(from_b[static_cast<std::size_t>(i)], "b" + std::to_string(i))
        << "FIFO violated on (2 -> 3) at index " << i;
  }

  net().detach(1);
  net().detach(2);
  net().detach(3);
}

TEST_P(TransportConformance, MulticastSharesOnePayloadAcrossDestinations) {
  RecordingEndpoint src(1, kVirginiaA);
  std::vector<std::unique_ptr<RecordingEndpoint>> dests;
  net().attach(&src);
  constexpr int kFanout = 8;
  for (int i = 0; i < kFanout; ++i) {
    dests.push_back(std::make_unique<RecordingEndpoint>(
        static_cast<NodeId>(10 + i), i % 2 == 0 ? kVirginiaB : kIreland));
    net().attach(dests.back().get());
  }

  // One refcounted buffer, sent to every destination — the transport must
  // neither copy it on send nor mutate it.
  Payload shared = make_payload("multicast-body");
  for (auto& d : dests) net().send(1, d->id(), shared, TrafficClass::kOrdered);

  ASSERT_TRUE(backend().settle([&] {
    for (auto& d : dests) {
      if (d->received.size() != 1) return false;
    }
    return true;
  }));
  for (auto& d : dests) {
    EXPECT_EQ(as_string(d->received[0].second), "multicast-body");
    if (backend().delivers_shared_buffers()) {
      EXPECT_TRUE(d->received[0].second.shares_buffer_with(shared))
          << "sim multicast must deliver the same refcounted buffer";
    }
  }
  EXPECT_EQ(as_string(shared), "multicast-body") << "payload was mutated in transit";

  net().detach(1);
  for (auto& d : dests) net().detach(d->id());
}

// ---- attachment lifecycle ------------------------------------------------

TEST_P(TransportConformance, SendToUnknownIdIsDroppedSilently) {
  RecordingEndpoint a(1, kVirginiaA);
  net().attach(&a);
  net().send(1, 99, make_payload("void"), TrafficClass::kOrdered);
  net().send(1, 99, make_payload("void"), TrafficClass::kUnordered);
  backend().settle_quiet();  // must not crash, nothing to observe
  net().detach(1);
}

TEST_P(TransportConformance, DetachDropsInflightAndReattachIsNewIncarnation) {
  RecordingEndpoint a(1, kVirginiaA);
  auto b = std::make_unique<RecordingEndpoint>(2, kVirginiaB);
  net().attach(&a);
  net().attach(b.get());

  // Establish the channel, then race a burst against a detach.
  net().send(1, 2, make_payload("warmup"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend().settle([&] { return b->received.size() == 1; }));

  for (int i = 0; i < 50; ++i) {
    net().send(1, 2, make_payload("inflight" + std::to_string(i)), TrafficClass::kOrdered);
  }
  net().detach(2);  // drops everything still traveling
  const std::size_t got_before = b->received.size();

  // New incarnation under the same id: old in-flight traffic must not
  // resurface in it.
  auto b2 = std::make_unique<RecordingEndpoint>(2, kVirginiaB);
  net().attach(b2.get());
  backend().settle_quiet();
  EXPECT_TRUE(b2->received.empty())
      << "messages sent to the old incarnation leaked into the new one";

  // The new incarnation is reachable.
  net().send(1, 2, make_payload("fresh"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend().settle([&] { return !b2->received.empty(); }));
  EXPECT_EQ(as_string(b2->received[0].second), "fresh");
  EXPECT_EQ(b->received.size(), got_before) << "old incarnation kept receiving";

  net().detach(1);
  net().detach(2);
}

// ---- crash faults --------------------------------------------------------

TEST_P(TransportConformance, DownNodeNeitherSendsNorReceives) {
  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net().attach(&a);
  net().attach(&b);

  net().set_node_down(2, true);
  EXPECT_TRUE(net().is_down(2));
  net().send(1, 2, make_payload("to-down"), TrafficClass::kOrdered);
  net().send(1, 2, make_payload("to-down-udp"), TrafficClass::kUnordered);
  net().set_node_down(1, true);
  net().send(1, 2, make_payload("from-down"), TrafficClass::kOrdered);
  backend().settle_quiet();
  EXPECT_TRUE(b.received.empty()) << "a down node must not receive";

  // Back up: traffic flows again.
  net().set_node_down(1, false);
  net().set_node_down(2, false);
  net().send(1, 2, make_payload("recovered"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend().settle([&] { return !b.received.empty(); }));
  EXPECT_EQ(as_string(b.received[0].second), "recovered");

  net().detach(1);
  net().detach(2);
}

// ---- accounting ----------------------------------------------------------

TEST_P(TransportConformance, WanLanAccountingFollowsRegions) {
  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB), c(3, kIreland);
  net().attach(&a);
  net().attach(&b);
  net().attach(&c);
  net().reset_stats();

  const Payload lan_msg = make_payload("xx");          // Virginia -> Virginia
  const Payload wan_msg = make_payload("yyyy");        // Virginia -> Ireland
  net().send(1, 2, lan_msg, TrafficClass::kOrdered);
  net().send(1, 3, wan_msg, TrafficClass::kOrdered);

  ASSERT_TRUE(backend().settle(
      [&] { return b.received.size() == 1 && c.received.size() == 1; }));

  EXPECT_EQ(net().stats().lan_msgs, 1u);
  EXPECT_EQ(net().stats().wan_msgs, 1u);
  EXPECT_EQ(net().stats().lan_bytes, lan_msg.size());
  EXPECT_EQ(net().stats().wan_bytes, wan_msg.size());
  EXPECT_EQ(net().node_stats(1).sent_lan_bytes, lan_msg.size());
  EXPECT_EQ(net().node_stats(1).sent_wan_bytes, wan_msg.size());

  net().detach(1);
  net().detach(2);
  net().detach(3);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(BackendKind::kSim, BackendKind::kLoopback),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return info.param == BackendKind::kSim ? "Sim" : "Loopback";
                         });

// ---- loopback-only behaviours -------------------------------------------
// Socket mechanics the sim has no analogue for: the one way a connection
// ends (peer restart, peer shutdown mid-frame, a hostile prologue), frames
// no connection can carry, and bounded buffering under backpressure that
// still lets a single large frame through.

/// This process's TCP connections, found through the kernel rather than
/// any transport API: a listener has SO_ACCEPTCONN set, an accepted
/// connection shares its listener's local port, and an outbound
/// connection's peer is a listener. Fds are allocated lowest-first, so a
/// test's few sockets sit far below the scan bound.
struct TcpSockets {
  std::vector<int> accepted;
  std::vector<int> outbound;
};

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

std::uint16_t peer_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

TcpSockets tcp_sockets() {
  std::vector<int> streams;
  std::vector<std::uint16_t> listen_ports;
  TcpSockets out;
  for (int fd = 0; fd < 1024; ++fd) {
    int type = 0, listening = 0;
    socklen_t len = sizeof(type);
    if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) != 0 || type != SOCK_STREAM) continue;
    len = sizeof(listening);
    if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &len) != 0) continue;
    if (listening != 0) {
      listen_ports.push_back(local_port(fd));
    } else {
      streams.push_back(fd);
    }
  }
  const auto is_listen_port = [&](std::uint16_t port) {
    return std::find(listen_ports.begin(), listen_ports.end(), port) != listen_ports.end();
  };
  for (int fd : streams) {
    if (is_listen_port(local_port(fd))) {
      out.accepted.push_back(fd);
    } else if (is_listen_port(peer_port(fd))) {
      out.outbound.push_back(fd);
    }
  }
  return out;
}

TEST(LoopbackTransport, ReconnectsAfterPeerRestart) {
  LoopbackBackend backend;
  net::LoopbackTransport& net = backend.loopback();

  RecordingEndpoint a(1, kVirginiaA);
  auto b = std::make_unique<RecordingEndpoint>(2, kVirginiaB);
  net.attach(&a);
  net.attach(b.get());

  net.send(1, 2, make_payload("first"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b->received.size() == 1; }));

  // Restart the destination: detach closes its listener and the
  // established connection; the next send must transparently build a fresh
  // connection to the new incarnation's port.
  net.detach(2);
  auto b2 = std::make_unique<RecordingEndpoint>(2, kVirginiaB);
  net.attach(b2.get());

  net.send(1, 2, make_payload("second"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return !b2->received.empty(); }))
      << "sender never re-established the connection";
  EXPECT_EQ(as_string(b2->received[0].second), "second");
  EXPECT_GE(net.counters().tcp_connects, 2u);

  net.detach(1);
  net.detach(2);
}

TEST(LoopbackTransport, PeerShutdownMidFrameNextSendStartsOnAFrameBoundary) {
  LoopbackBackend backend;
  net::LoopbackTransport& net = backend.loopback();

  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net.attach(&a);
  net.attach(&b);
  net.send(1, 2, make_payload("before"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b.received.size() == 1; }));

  // Nothing polls, so B reads none of this frame: the kernel takes a
  // window's worth and the rest waits in A's queue.
  const Payload big(Bytes(6u * 1024 * 1024, 0xab));
  net.send(1, 2, big, TrafficClass::kOrdered);
  const TcpSockets socks = tcp_sockets();
  ASSERT_EQ(socks.accepted.size(), 1u);
  ASSERT_EQ(socks.outbound.size(), 1u);
  int unacked = 0, unread = 0;
  ASSERT_EQ(::ioctl(socks.outbound[0], TIOCOUTQ, &unacked), 0);
  ASSERT_EQ(::ioctl(socks.accepted[0], FIONREAD, &unread), 0);
  ASSERT_LT(static_cast<std::size_t>(unacked) + static_cast<std::size_t>(unread), big.size())
      << "the frame must be half written when the connection ends";

  // B's side shuts down: A reads EOF and tears its connection down, and B
  // then reads the cut-off frame up to A's close, a dirty close.
  ASSERT_EQ(::shutdown(socks.accepted[0], SHUT_WR), 0);
  ASSERT_TRUE(backend.settle([&] { return net.counters().tcp_dirty_closes == 1; }));

  net.send(1, 2, make_payload("after"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b.received.size() == 2; }));
  EXPECT_EQ(as_string(b.received[1].second), "after");
  EXPECT_EQ(net.counters().tcp_decode_errors, 0u)
      << "the fresh connection resumed the cut-off frame mid-body";
  EXPECT_EQ(net.counters().tcp_connects, 2u);
  EXPECT_EQ(net.counters().tcp_teardowns, 1u);
  EXPECT_EQ(net.counters().dropped_teardown, 1u) << "the cut-off frame is dropped and counted";

  net.detach(1);
  net.detach(2);
}

TEST(LoopbackTransport, BadPrologueClosesOnlyItsConnection) {
  LoopbackBackend backend;
  net::LoopbackTransport& net = backend.loopback();

  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net.attach(&a);
  net.attach(&b);
  net.send(1, 2, make_payload("before"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b.received.size() == 1; }));

  // B's listener is the one that accepted A's connection.
  const TcpSockets socks = tcp_sockets();
  ASSERT_EQ(socks.accepted.size(), 1u);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(local_port(socks.accepted[0]));

  // A raw local client declares a 3-byte frame: too short for a sender id.
  const int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(raw, 0);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::uint8_t prologue[8] = {3, 0, 0, 0, 9, 0, 0, 0};
  ASSERT_EQ(::send(raw, prologue, sizeof(prologue), MSG_NOSIGNAL), 8);
  ASSERT_TRUE(backend.settle([&] { return net.counters().tcp_decode_errors == 1; }));
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(raw, &byte, 1, MSG_DONTWAIT), 0) << "the hostile connection stayed open";
  ::close(raw);

  // A's connection to the same listener is untouched.
  net.send(1, 2, make_payload("after"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b.received.size() == 2; }));
  EXPECT_EQ(as_string(b.received[1].second), "after");
  EXPECT_EQ(net.counters().tcp_connects, 1u);
  EXPECT_EQ(net.counters().tcp_decode_errors, 1u);

  net.detach(1);
  net.detach(2);
}

TEST(LoopbackTransport, OversizedPayloadIsDroppedAndCounted) {
  LoopbackBackend backend;
  net::LoopbackTransport& net = backend.loopback();

  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net.attach(&a);
  net.attach(&b);

  // With the sender id, a payload of kDefaultMaxFrame bytes is one byte
  // more than any frame may declare.
  const Payload huge(Bytes(net::kDefaultMaxFrame, 0xcd));
  EXPECT_NO_THROW(net.send(1, 2, huge, TrafficClass::kOrdered));
  EXPECT_EQ(net.counters().dropped_oversize, 1u);
  EXPECT_EQ(net.counters().tcp_frames_sent, 0u);

  net.send(1, 2, make_payload("small"), TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b.received.size() == 1; }));
  EXPECT_EQ(as_string(b.received[0].second), "small");

  net.detach(1);
  net.detach(2);
}

TEST(LoopbackTransport, FrameAboveTheQueueCapCrossesAnIdleConnection) {
  LoopbackBackend backend;
  net::LoopbackTransport& net = backend.loopback();

  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net.attach(&a);
  net.attach(&b);

  // Larger than the queue cap but within the framer's bound: the sim
  // delivers such a payload, so an empty connection queue must admit it.
  const Payload big(Bytes(9u * 1024 * 1024, 0x5a));
  ASSERT_GT(big.size(), net::LoopbackTransport::kMaxQueueBytes);
  net.send(1, 2, big, TrafficClass::kOrdered);
  ASSERT_TRUE(backend.settle([&] { return b.received.size() == 1; }));
  EXPECT_TRUE(std::ranges::equal(b.received[0].second.view(), big.view()));
  EXPECT_EQ(net.counters().dropped_backpressure, 0u);

  net.detach(1);
  net.detach(2);
}

TEST(LoopbackTransport, BackpressureDropsInsteadOfBufferingUnbounded) {
  net::LoopbackTransport net;

  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net.attach(&a);
  net.attach(&b);

  // Never poll, so the connect never completes and nothing drains: the
  // user-space queue must cap out and start dropping rather than grow.
  // Every send shares one 16 KiB buffer, so reaching the cap copies
  // nothing.
  const Payload big(Bytes(16 * 1024, 0xab));
  const std::size_t sends = net::LoopbackTransport::kMaxQueueBytes / big.size() + 8;
  for (std::size_t i = 0; i < sends; ++i) net.send(1, 2, big, TrafficClass::kOrdered);
  EXPECT_GT(net.counters().dropped_backpressure, 0u);

  net.detach(1);
  net.detach(2);
}

TEST(LoopbackTransport, ShutdownWithLiveConnectionsLeaksNothing) {
  // Exercised under ASan/LSan in CI: construct, create traffic on both
  // channels, destroy while connections are established and queues busy.
  auto net = std::make_unique<net::LoopbackTransport>();
  RecordingEndpoint a(1, kVirginiaA), b(2, kVirginiaB);
  net->attach(&a);
  net->attach(&b);
  net->send(1, 2, make_payload("tcp"), TrafficClass::kOrdered);
  net->send(1, 2, make_payload("udp"), TrafficClass::kUnordered);
  net->poll(1ms);
  net.reset();  // destructor must close every fd and free every queue
}

// ---- pacing ----------------------------------------------------------------
// The reactor waits exactly as long as it is asked (the realtime driver's
// pacing on top of it is pinned in test_realtime.cpp).

std::chrono::microseconds median(std::vector<std::chrono::microseconds> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::chrono::microseconds since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               t);
}

TEST(EpollReactor, IdleWaitLastsTheMicrosecondTimeout) {
  net::EpollReactor reactor;
  std::vector<std::chrono::microseconds> took;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(reactor.wait(250us), 0u);
    took.push_back(since(start));
    EXPECT_GE(took.back(), 250us) << "wait returned early";
  }
  EXPECT_LT(median(took), 1ms);
}

}  // namespace
}  // namespace spider
