#include "sim/network.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace spider {

namespace {
std::uint64_t pair_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
}  // namespace

SimNetwork::SimNetwork(EventQueue& queue, Rng rng) : queue_(queue), rng_(rng) {}

void SimNetwork::attach(TransportEndpoint* node) { nodes_[node->id()] = node; }

void SimNetwork::detach(NodeId id) {
  if (nodes_.erase(id) > 0) ++incarnation_[id];
}

std::uint64_t SimNetwork::incarnation(NodeId id) const {
  auto it = incarnation_.find(id);
  return it == incarnation_.end() ? 0 : it->second;
}

void SimNetwork::set_node_bandwidth_factor(NodeId id, double factor) {
  if (factor >= 1.0) {
    bw_factor_.erase(id);
  } else {
    bw_factor_[id] = std::max(factor, 1e-6);
  }
}

double SimNetwork::node_bandwidth_factor(NodeId id) const {
  auto it = bw_factor_.find(id);
  return it == bw_factor_.end() ? 1.0 : it->second;
}

void SimNetwork::set_link_filter(std::function<bool(NodeId, NodeId)> filter) {
  filter_ = std::move(filter);
}

void SimNetwork::send(NodeId from, NodeId to, Payload payload, TrafficClass /*cls*/) {
  // The traffic class is a socket-backend concern: the sim models one
  // reliable FIFO channel per pair for all classes (see header).
  auto from_it = nodes_.find(from);
  auto to_it = nodes_.find(to);
  if (from_it == nodes_.end() || to_it == nodes_.end()) return;
  if (is_down(from) || is_down(to)) return;
  if (filter_ && !filter_(from, to)) return;

  TransportEndpoint* src = from_it->second;
  TransportEndpoint* dst = to_it->second;
  const std::size_t size = payload.size();
  const bool wan = is_wan(src->site(), dst->site());

  // Fault shaping stacks on top of the user filter (checked above).
  LinkFault fault;
  if (fault_shaper_) fault = fault_shaper_(from, to);
  if (fault.cut) return;
  if (fault.loss > 0.0 && rng_.uniform01() < fault.loss) return;

  if (wan) {
    stats_.wan_bytes += size;
    stats_.wan_msgs += 1;
    node_stats_[from].sent_wan_bytes += size;
  } else {
    stats_.lan_bytes += size;
    stats_.lan_msgs += 1;
    node_stats_[from].sent_lan_bytes += size;
  }
  node_stats_[to].recv_bytes += size;

  Duration base = one_way_latency(src->site(), dst->site());
  Duration jitter = static_cast<Duration>(rng_.uniform01() * jitter_frac * static_cast<double>(base));
  double bw = kBandwidthBytesPerUs *
              std::min(node_bandwidth_factor(from), node_bandwidth_factor(to));
  Duration transmit = static_cast<Duration>(static_cast<double>(size) / bw);
  Time arrival = queue_.now() + kFixedOverhead + base + jitter + transmit + fault.extra_delay;

  if (tracer_) {
    tracer_->instant(queue_.now(), from, wan ? "net-wan" : "net-lan", "send",
                     "to", to, "bytes", size);
  }

  // Per-pair FIFO: never deliver earlier than a previously sent message.
  Time& clearance = pair_clearance_[pair_key(from, to)];
  if (arrival < clearance) arrival = clearance;
  clearance = arrival;

  // A message is addressed to the destination *incarnation* that existed
  // when it was sent: if the destination process restarted before arrival,
  // the message is lost (its connections died with the old process).
  const std::uint64_t to_inc = incarnation(to);
  queue_.schedule_at(arrival, [this, from, to, to_inc, msg = std::move(payload)]() mutable {
    auto it = nodes_.find(to);
    if (it == nodes_.end() || incarnation(to) != to_inc) return;
    if (is_down(to) || is_down(from)) return;
    it->second->deliver(from, std::move(msg));
  });
}

}  // namespace spider
