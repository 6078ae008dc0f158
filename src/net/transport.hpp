// The transport seam: every message in the repo crosses this interface.
//
// Protocol objects (SimNode / Component stacks) talk to a `Transport`,
// never to a concrete network. Two implementations exist:
//
//   - `SimNetwork` (src/sim/network.hpp): the deterministic discrete-event
//     simulation — modeled geographic latency, bandwidth, fault injection,
//     byte-identical replay for a given seed.
//   - `LoopbackTransport` (src/net/loopback_transport.hpp): real sockets
//     through an epoll reactor — UDP datagrams for unordered traffic,
//     length-prefixed framed TCP for ordered/control traffic.
//
// The contract both backends honour (pinned by tests/test_transport.cpp):
//
//   * send() is fire-and-forget and never blocks the caller.
//   * Messages on the same (from, to) pair and traffic class are delivered
//     FIFO. The sim is stronger (FIFO across classes on a pair); the
//     socket backend orders only within a class (UDP and TCP are separate
//     channels), so protocol code must not rely on cross-class order.
//   * A multicast may pass the same refcounted Payload for every
//     destination; the transport never mutates it.
//   * Messages to ids that are not attached are dropped silently.
//   * detach() drops in-flight messages addressed to the detached id; a
//     later attach() under the same id is a new incarnation and does not
//     resurrect them.
//   * A "down" node (set_node_down) neither sends nor receives until it is
//     brought back up; messages arriving while it is down are lost.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/payload.hpp"
#include "sim/topology.hpp"

namespace spider {

/// Delivery class of a message. Ordered/control traffic needs the reliable
/// FIFO channel (framed TCP on the socket backend); unordered traffic — the
/// weak-read fast path, whose requests and replies are idempotent and
/// client-retried — tolerates best-effort datagrams (UDP).
enum class TrafficClass : std::uint8_t {
  kOrdered = 0,
  kUnordered = 1,
};

const char* traffic_class_name(TrafficClass cls);

/// WAN/LAN byte accounting (the paper's Figure 9d reports exactly these
/// counters). Both backends classify a hop by the endpoints' modeled sites.
struct LinkStats {
  std::uint64_t wan_bytes = 0;
  std::uint64_t lan_bytes = 0;
  std::uint64_t wan_msgs = 0;
  std::uint64_t lan_msgs = 0;

  void reset() { *this = LinkStats{}; }
};

struct PerNodeNetStats {
  std::uint64_t sent_wan_bytes = 0;
  std::uint64_t sent_lan_bytes = 0;
  std::uint64_t recv_bytes = 0;
};

/// A process attached to a transport. SimNode implements this; tests attach
/// bare recording endpoints.
class TransportEndpoint {
 public:
  virtual ~TransportEndpoint() = default;

  [[nodiscard]] virtual NodeId id() const = 0;
  /// Modeled geographic placement (drives latency in the sim and WAN/LAN
  /// accounting in both backends).
  [[nodiscard]] virtual Site site() const = 0;
  /// Inbound message. Called by the transport on its delivery path; must
  /// not re-enter Transport::send synchronously with unbounded recursion.
  virtual void deliver(NodeId from, Payload data) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual void attach(TransportEndpoint* ep) = 0;
  virtual void detach(NodeId id) = 0;

  /// Sends `payload` from `from` to `to` (fire-and-forget; see the file
  /// comment for the delivery contract). The payload is refcounted, not
  /// copied: a multicast passes the same Payload for every destination.
  virtual void send(NodeId from, NodeId to, Payload payload, TrafficClass cls) = 0;

  void send(NodeId from, NodeId to, Payload payload) {
    send(from, to, std::move(payload), TrafficClass::kOrdered);
  }
  void send(NodeId from, NodeId to, Bytes payload) {
    send(from, to, Payload(std::move(payload)), TrafficClass::kOrdered);
  }

  /// A "down" node neither sends nor receives (crash fault). Each backend
  /// drops at send and at delivery by asking is_down(); the two stay
  /// virtual so a decorator can forward them to the transport it wraps.
  virtual void set_node_down(NodeId id, bool down) {
    if (down) {
      down_.insert(id);
    } else {
      down_.erase(id);
    }
  }
  [[nodiscard]] virtual bool is_down(NodeId id) const { return down_.count(id) != 0; }

  // ---- accounting ------------------------------------------------------
  LinkStats& stats() { return stats_; }
  PerNodeNetStats& node_stats(NodeId id) { return node_stats_[id]; }
  virtual void reset_stats() {
    stats_.reset();
    node_stats_.clear();
  }

 protected:
  LinkStats stats_;
  std::unordered_map<NodeId, PerNodeNetStats> node_stats_;

 private:
  std::unordered_set<NodeId> down_;
};

}  // namespace spider
