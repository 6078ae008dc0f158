#include "spider/client.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace spider {

namespace {
/// Returns the result that at least `quorum` replicas agree on, if any.
const Bytes* matching_quorum(const std::map<NodeId, Bytes>& replies, std::uint32_t quorum) {
  for (const auto& [node, result] : replies) {
    std::uint32_t count = 0;
    for (const auto& [node2, result2] : replies) {
      if (result2 == result) ++count;
    }
    if (count >= quorum) return &result;
  }
  return nullptr;
}
}  // namespace

SpiderClient::SpiderClient(World& world, Site site, ClientGroupInfo group, Duration retry)
    : ComponentHost(world, world.allocate_id(), site),
      group_(std::move(group)),
      retry_(retry),
      rng_(world.rng().fork()),
      port_(*this, tags::kClient, [this](NodeId from, BytesView f) { handle_reply(from, f); }),
      retransmits_(world.metrics().counter("client_retransmits",
                                           {.node = id(), .role = "client"})),
      ordered_{.direct = false,
               .latency = world.metrics().histogram("client_latency_ordered",
                                                    {.node = id(), .role = "client"})},
      direct_{.direct = true,
              .latency = world.metrics().histogram("client_latency_direct",
                                                   {.node = id(), .role = "client"})} {}

void SpiderClient::fire(OpKind kind, Bytes op, OpCallback cb) {
  const bool direct = kind == OpKind::WeakRead ||
                      (kind == OpKind::StrongRead && group_.direct_strong_quorum != 0);
  enqueue(direct ? direct_ : ordered_, PendingOp{kind, std::move(op), std::move(cb)});
}

void SpiderClient::enqueue(Lane& lane, PendingOp op) {
  lane.queue.push_back(std::move(op));
  if (!lane.in_flight) start(lane);
}

std::uint64_t SpiderClient::trace_id(const Lane& lane) const {
  return obs::request_id(id(), lane.counter, /*weak=*/lane.direct);
}

void SpiderClient::start(Lane& lane) {
  if (lane.queue.empty()) return;
  lane.in_flight = true;
  lane.expiries = 0;
  ++lane.counter;
  const PendingOp& cur = lane.queue.front();

  // Ordered requests are signed; direct ones carry the MAC alone.
  ClientRequest req{cur.kind, id(), lane.counter, cur.op};
  Bytes sig;
  if (!lane.direct) {
    charge_sign();
    sig = crypto().sign(id(), port_.auth_bytes(codec::encode(req)));
  }
  lane.frame = codec::encode(ClientFrame{std::move(req), std::move(sig)});
  lane.replies.clear();
  lane.start = now();
  lane.backoff = retry_;
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncBegin, now(), id(), trace_id(lane), "request",
             lane.direct ? "direct" : "ordered", "kind", static_cast<std::uint64_t>(cur.kind));
  }
  transmit(lane);

  if (lane.timer != EventQueue::kInvalidEvent) cancel_timer(lane.timer);
  arm(lane);
}

void SpiderClient::arm(Lane& lane) {
  // Keep resending the in-flight request until a quorum of matching replies
  // arrives (paper Fig. 15, L. 11-13). The interval backs off exponentially
  // — but capped at kRetryBackoffCap x the base interval, so a recovering
  // system is reprobed within bounded time — and carries deterministic
  // per-client jitter (up to a quarter interval, from a stream forked off
  // the sim RNG), so clients whose requests got dropped together spread
  // their retransmits out instead of staying phase-locked in a retry storm.
  const auto jitter =
      static_cast<Duration>(rng_.uniform(static_cast<std::uint64_t>(lane.backoff / 4) + 1));
  lane.timer = set_timer(lane.backoff + jitter, [this, &lane] {
    lane.timer = EventQueue::kInvalidEvent;
    // The expiry runs as a task behind the node's CPU queue, so the op may
    // have completed (or been cancelled) since the timer fired.
    if (!lane.in_flight) return;
    if (lane.direct && lane.queue.front().kind == OpKind::StrongRead &&
        ++lane.expiries >= kDirectReadFallbackRetries) {
      // Read-only optimization fallback (Castro-Liskov): the direct replies
      // will never agree — re-submit as a regular ordered request.
      // Deliberately OpKind::Write, not StrongRead: replicas in direct-read
      // mode answer StrongRead from local state without ordering (that is
      // the loop being broken here), and only the regular-request kind
      // forces the op through consensus. The op itself is read-only, so
      // ordering it mutates nothing and answers from the committed state at
      // its sequence position.
      PendingOp op = std::move(lane.queue.front());
      lane.queue.pop_front();
      lane.in_flight = false;
      if (auto* t = tracer()) {
        t->async(obs::Ph::kAsyncEnd, now(), id(), trace_id(lane), "request", "direct",
                 "fallback", 1);
      }
      enqueue(ordered_, PendingOp{OpKind::Write, std::move(op.op), std::move(op.cb)});
      start(lane);
      return;
    }
    retransmits_.inc();
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(), trace_id(lane), "request", "retransmit");
    }
    transmit(lane);
    lane.backoff = std::min<Duration>(lane.backoff * 2, kRetryBackoffCap * retry_);
    arm(lane);
  });
}

void SpiderClient::transmit(const Lane& lane) {
  // Ordered requests ride the reliable control channel; direct requests are
  // retried and idempotent, so they ride the unordered datagram channel on
  // the socket backend.
  port_.send_maced(group_.members, lane.frame,
                   lane.direct ? TrafficClass::kUnordered : TrafficClass::kOrdered);
}

void SpiderClient::switch_group(ClientGroupInfo group) {
  group_ = std::move(group);
  for (Lane* lane : {&ordered_, &direct_}) {
    if (!lane->in_flight) continue;
    lane->replies.clear();
    transmit(*lane);
  }
}

void SpiderClient::cancel_pending() {
  for (Lane* lane : {&ordered_, &direct_}) {
    lane->queue.clear();
    lane->in_flight = false;
    lane->frame.clear();
    lane->replies.clear();
    if (lane->timer != EventQueue::kInvalidEvent) {
      cancel_timer(lane->timer);
      lane->timer = EventQueue::kInvalidEvent;
    }
  }
}

void SpiderClient::handle_reply(NodeId from, BytesView frame) {
  // Replies only count from members of the current group.
  if (std::find(group_.members.begin(), group_.members.end(), from) == group_.members.end()) {
    return drop(Drop::kNotMember);
  }

  std::optional<BytesView> body = verified_body(from, port_.tag(), frame, /*is_sig=*/false);
  if (!body) return;

  auto reply = decode<ReplyMsg>(*body);
  if (!reply) return;
  Lane& lane = reply->weak ? direct_ : ordered_;
  if (!lane.in_flight || reply->counter != lane.counter) return;
  lane.replies[from] = reply->result;
  std::uint32_t quorum = group_.fe + 1;
  if (lane.direct && lane.queue.front().kind == OpKind::StrongRead &&
      group_.direct_strong_quorum != 0) {
    quorum = group_.direct_strong_quorum;
  }
  const Bytes* result = matching_quorum(lane.replies, quorum);
  if (result == nullptr) return;

  Bytes out = *result;
  PendingOp op = std::move(lane.queue.front());
  lane.queue.pop_front();
  lane.in_flight = false;
  if (lane.timer != EventQueue::kInvalidEvent) {
    cancel_timer(lane.timer);
    lane.timer = EventQueue::kInvalidEvent;
  }
  Duration latency = now() - lane.start;
  lane.latency.add(static_cast<std::uint64_t>(latency));
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncEnd, now(), id(), trace_id(lane), "request",
             lane.direct ? "direct" : "ordered");
  }
  op.cb(std::move(out), latency);
  // Next queued op on this lane, if any; a callback that submitted onto this
  // lane has already started it.
  if (!lane.in_flight) start(lane);
}

}  // namespace spider
