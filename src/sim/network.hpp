// Simulated network: point-to-point message delivery with geographic
// latency, jitter, per-node bandwidth, fault injection and WAN/LAN byte
// accounting (the paper's Figure 9d reports exactly these counters).
//
// SimNetwork is the deterministic implementation of the `Transport` seam
// (src/net/transport.hpp); the epoll/socket backend is the other one.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/topology.hpp"

namespace spider {

namespace obs {
class Tracer;
}

/// Per-message fault effects produced by a fault shaper (see FaultPlan):
/// a cut link drops deterministically, `loss` drops i.i.d. with the
/// network RNG, `extra_delay` is added to the propagation delay.
struct LinkFault {
  bool cut = false;
  double loss = 0.0;
  Duration extra_delay = 0;
};

class SimNetwork final : public Transport {
 public:
  SimNetwork(EventQueue& queue, Rng rng);

  void attach(TransportEndpoint* node) override;
  void detach(NodeId id) override;

  using Transport::send;
  /// Sends `payload` from `from` to `to`. Messages between distinct node
  /// pairs are independent; messages on the same (from, to) pair are
  /// delivered FIFO (reliable ordered channel, as the paper assumes) —
  /// regardless of traffic class: the sim models one reliable channel per
  /// pair, so `cls` only affects the socket backend.
  /// The payload is refcounted, not copied: a multicast that passes the
  /// same Payload for every destination shares one buffer across all
  /// in-flight deliveries.
  void send(NodeId from, NodeId to, Payload payload, TrafficClass cls) override;

  // ---- fault injection ------------------------------------------------
  /// Drops every message for which the filter returns false.
  void set_link_filter(std::function<bool(NodeId from, NodeId to)> filter);

  /// Fault shaper consulted *in addition to* the user link filter (the two
  /// stack; neither replaces the other). Installed by FaultPlan to express
  /// partitions, loss rates and delay spikes without clobbering a link
  /// filter a test already set.
  using FaultShaper = std::function<LinkFault(NodeId from, NodeId to)>;
  void set_fault_shaper(FaultShaper shaper) { fault_shaper_ = std::move(shaper); }

  /// Slow-node mode: scales the node's NIC bandwidth by `factor` in (0, 1];
  /// 1 restores full speed. A message's transmit time uses the slower of
  /// the two endpoints (the throttled NIC bounds the link either way).
  void set_node_bandwidth_factor(NodeId id, double factor);
  [[nodiscard]] double node_bandwidth_factor(NodeId id) const;

  /// Incarnation of a NodeId: bumped every time the node detaches. Defines
  /// the in-flight semantics across a crash/restart: a message addressed to
  /// an incarnation that no longer exists at arrival time is lost (its
  /// connections died with the process), while messages sent *by* the old
  /// incarnation that are already on the wire still arrive (datagrams in
  /// flight do not care whether their sender lives).
  [[nodiscard]] std::uint64_t incarnation(NodeId id) const;

  /// Passive trace sink (owned by World); nullptr = no tracing. Emits one
  /// instant per accepted message at enqueue time — after drop decisions,
  /// so the trace shows what actually went onto the wire. Never consumes
  /// RNG or alters delivery.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Per-node NIC bandwidth in bytes per microsecond (default ~0.6 Gbit/s
  /// sustained, matching a t3.small-class instance).
  double bandwidth_bytes_per_us = 75.0;
  /// Extra fixed per-hop delay (kernel/NIC).
  Duration fixed_overhead = 30;
  /// Relative uniform jitter applied to the propagation delay.
  double jitter_frac = 0.02;

 private:
  EventQueue& queue_;
  Rng rng_;
  std::unordered_map<NodeId, TransportEndpoint*> nodes_;
  std::unordered_map<NodeId, std::uint64_t> incarnation_;
  std::unordered_map<NodeId, double> bw_factor_;
  // Earliest time the next message on a (from,to) pair may arrive, to keep
  // per-pair FIFO under jitter.
  std::unordered_map<std::uint64_t, Time> pair_clearance_;
  std::function<bool(NodeId, NodeId)> filter_;
  FaultShaper fault_shaper_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace spider
