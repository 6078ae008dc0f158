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
      port_(*this, tags::kClient, [this](NodeId from, Reader& r) { handle_reply(from, r); }),
      retransmits_(world.metrics().counter("client_retransmits",
                                           {.node = id(), .role = "client"})),
      lat_ordered_(world.metrics().histogram("client_latency_ordered",
                                             {.node = id(), .role = "client"})),
      lat_direct_(world.metrics().histogram("client_latency_direct",
                                            {.node = id(), .role = "client"})) {}

void SpiderClient::switch_group(ClientGroupInfo group) {
  group_ = std::move(group);
  if (in_flight_) {
    replies_.clear();
    transmit_current();
  }
  if (weak_in_flight_) {
    weak_replies_.clear();
    transmit_weak();
  }
}

void SpiderClient::submit_ordered(OpKind kind, Bytes op, OpCallback cb, bool open,
                                  Time enqueued) {
  queue_.push_back(OrderedOp{kind, std::move(op), std::move(cb),
                             enqueued >= 0 ? enqueued : now(), open});
  if (!in_flight_) start_next();
}

void SpiderClient::fire(OpKind kind, Bytes op, OpCallback cb) {
  if (kind == OpKind::WeakRead ||
      (kind == OpKind::StrongRead && group_.direct_strong_reads)) {
    submit_direct(kind, std::move(op), std::move(cb), /*open=*/true);
  } else {
    submit_ordered(kind, std::move(op), std::move(cb), /*open=*/true);
  }
}

void SpiderClient::start_next() {
  if (queue_.empty()) return;
  in_flight_ = true;
  ++tc_;
  OrderedOp& cur = queue_.front();

  ClientRequest req{cur.kind, id(), tc_, cur.op};
  Bytes body = codec::encode(req);
  charge_sign();
  Bytes sig = crypto().sign(id(), port_.auth_bytes(body));
  current_wire_ = codec::encode(ClientFrame{std::move(req), std::move(sig)});
  replies_.clear();
  current_start_ = now();
  retry_cur_ = retry_;
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncBegin, now(), id(), obs::request_id(id(), tc_),
             "request", "ordered", "kind", static_cast<std::uint64_t>(cur.kind));
  }
  transmit_current();

  if (retry_timer_ != EventQueue::kInvalidEvent) cancel_timer(retry_timer_);
  arm_retry();
}

Duration SpiderClient::retry_jitter(Duration base) {
  // Deterministic per-client jitter (up to base/4) from a stream forked off
  // the sim RNG: many clients whose requests got dropped together spread
  // their retransmits out instead of staying phase-locked in a retry storm.
  return static_cast<Duration>(rng_.uniform(static_cast<std::uint64_t>(base / 4) + 1));
}

void SpiderClient::arm_retry() {
  // Keep resending the in-flight request until fe+1 matching replies arrive
  // (paper Fig. 15, L. 11-13). The interval backs off exponentially — but
  // capped at kRetryBackoffCap x the base interval, so a recovering system
  // is reprobed within bounded time — and jittered, so a batched/saturated
  // system is not hammered with synchronized duplicates that would only be
  // answered from the reply cache.
  retry_timer_ = set_timer(retry_cur_ + retry_jitter(retry_cur_), [this] {
    retry_timer_ = EventQueue::kInvalidEvent;
    if (!in_flight_) return;
    retransmits_.inc();
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(), obs::request_id(id(), tc_),
               "request", "retransmit");
    }
    transmit_current();
    retry_cur_ = std::min<Duration>(retry_cur_ * 2, kRetryBackoffCap * retry_);
    arm_retry();
  });
}

void SpiderClient::transmit_current() {
  port_.send_maced(group_.members, current_wire_);
}

void SpiderClient::weak_read(Bytes op, OpCallback cb) {
  submit_direct(OpKind::WeakRead, std::move(op), std::move(cb));
}

void SpiderClient::submit_direct(OpKind kind, Bytes op, OpCallback cb, bool open) {
  weak_queue_.push_back(WeakOp{std::move(op), std::move(cb), kind, now(), open});
  if (!weak_in_flight_) start_weak();
}

void SpiderClient::start_weak() {
  if (weak_queue_.empty()) return;
  weak_in_flight_ = true;
  weak_attempts_ = 0;
  ++weak_counter_;
  weak_replies_.clear();
  weak_start_ = now();
  weak_retry_cur_ = retry_;
  if (auto* t = tracer()) {
    t->async(obs::Ph::kAsyncBegin, now(), id(),
             obs::request_id(id(), weak_counter_, /*weak=*/true), "request",
             "direct", "kind",
             static_cast<std::uint64_t>(weak_queue_.front().kind));
  }
  transmit_weak();
  arm_weak_retry();
}

void SpiderClient::arm_weak_retry() {
  // Same capped exponential backoff + jitter as the ordered path. The
  // direct path used to re-arm at the constant base interval, which turned
  // every partition into a deterministic weak-read retry storm.
  weak_retry_timer_ = set_timer(weak_retry_cur_ + retry_jitter(weak_retry_cur_), [this] {
    weak_retry_timer_ = EventQueue::kInvalidEvent;
    if (!weak_in_flight_) return;
    if (weak_queue_.front().kind == OpKind::StrongRead &&
        ++weak_attempts_ >= kDirectReadFallbackRetries) {
      // Read-only optimization fallback (Castro-Liskov): the direct
      // replies will never agree — re-submit as a regular ordered
      // request. Deliberately OpKind::Write, not StrongRead: replicas in
      // direct-read mode answer StrongRead from local state without
      // ordering (that is the loop being broken here), and only the
      // regular-request kind forces the op through consensus. The op
      // itself is read-only, so ordering it mutates nothing and answers
      // from the committed state at its sequence position. This path is
      // only reachable with direct_strong_reads (flat-BFT baselines);
      // Spider strong reads are always ordered.
      WeakOp op = std::move(weak_queue_.front());
      weak_queue_.pop_front();
      weak_in_flight_ = false;
      if (auto* t = tracer()) {
        t->async(obs::Ph::kAsyncEnd, now(), id(),
                 obs::request_id(id(), weak_counter_, /*weak=*/true), "request",
                 "direct", "fallback", 1);
      }
      // An open op keeps its original sojourn stamp across the fallback.
      submit_ordered(OpKind::Write, std::move(op.op), std::move(op.cb), op.open,
                     op.enqueued);
      start_weak();
      return;
    }
    retransmits_.inc();
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncInstant, now(), id(),
               obs::request_id(id(), weak_counter_, /*weak=*/true), "request",
               "retransmit");
    }
    transmit_weak();
    weak_retry_cur_ = std::min<Duration>(weak_retry_cur_ * 2, kRetryBackoffCap * retry_);
    arm_weak_retry();
  });
}

std::vector<SpiderClient::PendingOp> SpiderClient::cancel_pending() {
  std::vector<PendingOp> out;
  for (OrderedOp& op : queue_) {
    out.push_back(PendingOp{op.kind, std::move(op.op), std::move(op.cb)});
  }
  queue_.clear();
  in_flight_ = false;
  current_wire_.clear();
  replies_.clear();
  if (retry_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(retry_timer_);
    retry_timer_ = EventQueue::kInvalidEvent;
  }
  for (WeakOp& op : weak_queue_) {
    out.push_back(PendingOp{op.kind, std::move(op.op), std::move(op.cb)});
  }
  weak_queue_.clear();
  weak_in_flight_ = false;
  weak_replies_.clear();
  if (weak_retry_timer_ != EventQueue::kInvalidEvent) {
    cancel_timer(weak_retry_timer_);
    weak_retry_timer_ = EventQueue::kInvalidEvent;
  }
  return out;
}

void SpiderClient::resubmit(PendingOp op) {
  if (op.kind == OpKind::WeakRead ||
      (op.kind == OpKind::StrongRead && group_.direct_strong_reads)) {
    submit_direct(op.kind, std::move(op.op), std::move(op.cb));
  } else {
    submit_ordered(op.kind, std::move(op.op), std::move(op.cb));
  }
}

void SpiderClient::transmit_weak() {
  ClientRequest req{weak_queue_.front().kind, id(), weak_counter_, weak_queue_.front().op};
  port_.send_maced(group_.members, codec::encode(ClientFrame{std::move(req), {}}),
                   TrafficClass::kUnordered);
}

void SpiderClient::handle_reply(NodeId from, Reader& r) {
  // Replies only count from members of the current group.
  if (std::find(group_.members.begin(), group_.members.end(), from) == group_.members.end()) return;

  std::optional<BytesView> body =
      verified_body(from, port_.tag(), r.raw(r.remaining()), /*is_sig=*/false);
  if (!body) return;

  auto reply = codec::decode<ReplyMsg>(*body);

  if (reply.weak) {
    if (!weak_in_flight_ || reply.counter != weak_counter_) return;
    weak_replies_[from] = reply.result;
    std::uint32_t quorum = group_.fe + 1;
    if (weak_queue_.front().kind == OpKind::StrongRead) {
      quorum = group_.strong_quorum != 0 ? group_.strong_quorum : group_.fe + 1;
    }
    if (const Bytes* result = matching_quorum(weak_replies_, quorum)) {
      Bytes out = *result;
      WeakOp op = std::move(weak_queue_.front());
      weak_queue_.pop_front();
      weak_in_flight_ = false;
      if (weak_retry_timer_ != EventQueue::kInvalidEvent) {
        cancel_timer(weak_retry_timer_);
        weak_retry_timer_ = EventQueue::kInvalidEvent;
      }
      Duration latency = now() - weak_start_;
      lat_direct_.add(static_cast<std::uint64_t>(latency));
      if (auto* t = tracer()) {
        t->async(obs::Ph::kAsyncEnd, now(), id(),
                 obs::request_id(id(), weak_counter_, /*weak=*/true), "request",
                 "direct");
      }
      op.cb(std::move(out), op.open ? now() - op.enqueued : latency);
      start_weak();  // next queued weak read, if any
    }
    return;
  }

  if (!in_flight_ || reply.counter != tc_) return;
  replies_[from] = reply.result;
  if (const Bytes* result = matching_quorum(replies_, group_.fe + 1)) {
    Bytes out = *result;
    OrderedOp op = std::move(queue_.front());
    queue_.pop_front();
    in_flight_ = false;
    if (retry_timer_ != EventQueue::kInvalidEvent) {
      cancel_timer(retry_timer_);
      retry_timer_ = EventQueue::kInvalidEvent;
    }
    Duration latency = now() - current_start_;
    lat_ordered_.add(static_cast<std::uint64_t>(latency));
    if (auto* t = tracer()) {
      t->async(obs::Ph::kAsyncEnd, now(), id(), obs::request_id(id(), tc_),
               "request", "ordered");
    }
    op.cb(std::move(out), op.open ? now() - op.enqueued : latency);
    start_next();
  }
}

}  // namespace spider
