// Spider client (paper Fig. 15).
//
// Every operation enters through fire(kind, op, cb), which puts it on one of
// two lanes. Each lane keeps one request in flight at a time: the front of
// its queue, resent with capped, jittered backoff until a quorum of matching
// replies from the client's execution group arrives.
//  - Ordered lane: writes, reconfigurations and strongly consistent reads.
//    Requests are signed, ride the reliable channel and complete on fe+1
//    matching replies.
//  - Direct lane: weakly consistent reads (the fast path, §3.3) and, on the
//    flat-BFT baselines, direct strong reads. Requests are MAC'd only, ride
//    the unordered channel and complete on fe+1 matching replies, or on
//    direct_strong_quorum for a strong read, which falls back to the ordered
//    lane when no such quorum forms.
// Callbacks report service latency: reply quorum minus the request's first
// transmission. The open-loop runner stamps sojourn latency itself.
#pragma once

#include <deque>
#include <map>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "spider/messages.hpp"

namespace spider {

struct ClientGroupInfo {
  GroupId group = 0;
  std::vector<NodeId> members;  // 2fe+1 execution replicas
  std::uint32_t fe = 1;
  /// Flat-BFT optimized reads (paper §5, Fig. 8a): when non-zero, strongly
  /// consistent reads query replicas directly and need this many matching
  /// replies instead of passing through the ordering protocol. 0 = strong
  /// reads are ordered.
  std::uint32_t direct_strong_quorum = 0;
};

class SpiderClient : public ComponentHost {
 public:
  /// cb(result bytes, response time).
  using OpCallback = std::function<void(Bytes result, Duration latency)>;

  /// Retransmit backoff ceiling: the interval doubles per retry but never
  /// exceeds kRetryBackoffCap x the base retry interval.
  static constexpr Duration kRetryBackoffCap = 8;

  /// Direct strong reads that fail to assemble `direct_strong_quorum`
  /// matching replies within this many timer expiries fall back to the
  /// ordering protocol, as in Castro-Liskov's read-only optimization: too
  /// many replicas hold divergent state (stale after a partition, restarted
  /// from an old checkpoint, Byzantine) for direct replies to ever agree,
  /// and only an ordered execution answers consistently — it also generates
  /// the consensus traffic stale replicas need to notice they trail.
  static constexpr std::uint64_t kDirectReadFallbackRetries = 4;

  SpiderClient(World& world, Site site, ClientGroupInfo group,
               Duration retry = 2 * kSecond);

  /// Queues an operation on its lane and returns at once; `cb` fires at the
  /// reply quorum with the op's service latency. WeakRead (and StrongRead
  /// under direct_strong_quorum) take the direct lane, every other kind the
  /// ordered lane. The named entry points below are wrappers over it.
  void fire(OpKind kind, Bytes op, OpCallback cb);
  void write(Bytes op, OpCallback cb) { fire(OpKind::Write, std::move(op), std::move(cb)); }
  void strong_read(Bytes op, OpCallback cb) {
    fire(OpKind::StrongRead, std::move(op), std::move(cb));
  }
  void weak_read(Bytes op, OpCallback cb) {
    fire(OpKind::WeakRead, std::move(op), std::move(cb));
  }
  /// Submits an admin reconfiguration command through the write path.
  void reconfig(const ReconfigCmd& cmd, OpCallback cb) {
    fire(OpKind::Reconfig, codec::encode(cmd), std::move(cb));
  }

  /// Ops queued or in flight on this client, both lanes (the in-flight op
  /// stays in its queue until completion). The open-loop runner reports
  /// the max depth as a saturation symptom.
  [[nodiscard]] std::size_t queue_depth() const {
    return ordered_.queue.size() + direct_.queue.size();
  }

  /// Switches to a different execution group (e.g. after its region failed
  /// or a closer group appeared). Each lane's in-flight op is re-sent there.
  void switch_group(ClientGroupInfo group);

  /// Cancels every queued and in-flight operation on both lanes without
  /// invoking their callbacks. The shard router uses this to re-route ops
  /// that are retrying against a shard that no longer owns their keys; it
  /// keeps its own copy of each. An in-flight write may already have
  /// committed; re-submitting it is at-least-once, not exactly-once.
  void cancel_pending();

  [[nodiscard]] const ClientGroupInfo& group() const { return group_; }
  /// Total retransmissions, both lanes. Thin read of the registry counter
  /// `client_retransmits{node=id(), role="client"}`.
  [[nodiscard]] std::uint64_t retries() const { return retransmits_.value(); }

 private:
  struct PendingOp {
    OpKind kind;
    Bytes op;
    OpCallback cb;
  };
  struct Lane {
    const bool direct;
    obs::LogHistogram& latency;     // client_latency_{ordered,direct}
    std::deque<PendingOp> queue{};  // the front is in flight
    bool in_flight = false;
    std::uint64_t counter = 0;      // request counter of the current/last op
    Bytes frame{};                  // wire frame of the in-flight request
    Time start = 0;                 // its first transmission
    Duration backoff = 0;           // current retransmit interval
    std::uint64_t expiries = 0;     // timer expiries of a direct strong read
    std::map<NodeId, Bytes> replies{};  // replica -> result (current counter)
    EventQueue::EventId timer = EventQueue::kInvalidEvent;
  };

  void enqueue(Lane& lane, PendingOp op);
  void start(Lane& lane);
  void arm(Lane& lane);
  void transmit(const Lane& lane);
  void handle_reply(NodeId from, BytesView frame);
  [[nodiscard]] std::uint64_t trace_id(const Lane& lane) const;

  ClientGroupInfo group_;
  Duration retry_;
  Rng rng_;          // per-client stream for retransmit jitter
  TagHandler port_;  // [kClient]: requests out, replies in
  // Registry-backed stats (references stay valid for the World's lifetime).
  obs::Counter& retransmits_;
  Lane ordered_;
  Lane direct_;
};

}  // namespace spider
