// Spider client (paper Fig. 15).
//
// Writes and strongly consistent reads are signed, sent to every replica of
// the client's execution group, and accepted after fe+1 matching replies.
// Weakly consistent reads take the fast path: MAC-only requests answered
// directly by the local execution group (fe+1 matching results).
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
  /// Flat-BFT optimized reads (paper §5, Fig. 8a): strongly consistent
  /// reads query replicas directly and require `strong_quorum` matching
  /// replies instead of passing through the ordering protocol.
  bool direct_strong_reads = false;
  std::uint32_t strong_quorum = 0;  // 0 => fe+1
};

class SpiderClient : public ComponentHost {
 public:
  /// cb(result bytes, response time).
  using OpCallback = std::function<void(Bytes result, Duration latency)>;

  /// Retransmit backoff ceiling: the interval doubles per retry but never
  /// exceeds kRetryBackoffCap x the base retry interval.
  static constexpr Duration kRetryBackoffCap = 8;

  /// Direct (optimized) strong reads that fail to assemble `strong_quorum`
  /// matching replies within this many retransmissions fall back to the
  /// ordering protocol, as in Castro-Liskov's read-only optimization: too
  /// many replicas hold divergent state (stale after a partition, restarted
  /// from an old checkpoint, Byzantine) for direct replies to ever agree,
  /// and only an ordered execution answers consistently — it also generates
  /// the consensus traffic stale replicas need to notice they trail.
  static constexpr std::uint64_t kDirectReadFallbackRetries = 4;

  SpiderClient(World& world, Site site, ClientGroupInfo group,
               Duration retry = 2 * kSecond);

  /// Issues an operation; ordered ops (writes / strong reads) are queued
  /// one-outstanding-at-a-time as in the paper's client.
  void write(Bytes op, OpCallback cb) { submit_ordered(OpKind::Write, std::move(op), std::move(cb)); }
  void strong_read(Bytes op, OpCallback cb) {
    if (group_.direct_strong_reads) {
      submit_direct(OpKind::StrongRead, std::move(op), std::move(cb));
    } else {
      submit_ordered(OpKind::StrongRead, std::move(op), std::move(cb));
    }
  }
  void weak_read(Bytes op, OpCallback cb);

  /// Fire-and-record submission for open-loop load generation: the op
  /// enters this client's pipeline immediately and the arrival process
  /// never waits for a reply. Unlike write()/weak_read(), whose callbacks
  /// report *service* latency (reply time minus transmission start), the
  /// callback here reports *sojourn* latency — completion minus this
  /// submission, including any time the op queued behind earlier ops on
  /// this client. Under overload that queueing is exactly the signal a
  /// closed-loop harness hides (coordinated omission), so open-loop
  /// drivers must use this path. Kind routing matches the named entry
  /// points: WeakRead (and StrongRead under direct_strong_reads) take the
  /// direct path, everything else the ordered path. Ops cancelled by
  /// cancel_pending() lose the sojourn stamp on resubmit; router-managed
  /// deployments measure sojourn at the router instead.
  void fire(OpKind kind, Bytes op, OpCallback cb);

  /// Ops queued or in flight on this client, ordered + direct paths (the
  /// in-flight op stays in its queue until completion). Open-loop drivers
  /// report the max depth as a saturation symptom.
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() + weak_queue_.size();
  }

  /// Submits an admin reconfiguration command through the write path.
  void reconfig(const ReconfigCmd& cmd, OpCallback cb) {
    submit_ordered(OpKind::Reconfig, codec::encode(cmd), std::move(cb));
  }

  /// Switches to a different execution group (e.g. after its region failed
  /// or a closer group appeared). In-flight ordered ops are re-sent there.
  void switch_group(ClientGroupInfo group);

  /// Cancels every queued and in-flight operation — ordered and direct — and
  /// returns them in submission order (ordered queue first) with their
  /// callbacks, which have NOT been invoked. Routers use this to re-route
  /// ops that are retrying against a shard that no longer owns their keys.
  /// An in-flight write may already have committed; re-submitting it is
  /// at-least-once, not exactly-once.
  struct PendingOp {
    OpKind kind;
    Bytes op;
    OpCallback cb;
  };
  std::vector<PendingOp> cancel_pending();

  /// Re-submits a cancelled op with its original kind (weak reads re-enter
  /// the direct path, everything else the ordered path).
  void resubmit(PendingOp op);

  [[nodiscard]] const ClientGroupInfo& group() const { return group_; }
  /// Total retransmissions (ordered + direct). Thin read of the registry
  /// counter `client_retransmits{node=id(), role="client"}`.
  [[nodiscard]] std::uint64_t retries() const { return retransmits_.value(); }

 private:
  struct OrderedOp {
    OpKind kind;
    Bytes op;
    OpCallback cb;
    Time enqueued = 0;  // submission time (sojourn reference for open ops)
    bool open = false;  // fire(): report sojourn, not service latency
  };

  void submit_ordered(OpKind kind, Bytes op, OpCallback cb, bool open = false,
                      Time enqueued = -1);
  void start_next();
  Duration retry_jitter(Duration base);
  void arm_retry();
  /// transmit_current / transmit_weak: the in-flight ordered or direct
  /// request, MAC'd to every replica of the group. Ordered requests ride
  /// the reliable control channel; the direct path (weak reads, optimized
  /// strong reads) is retried and idempotent, so it rides the unordered
  /// datagram channel on the socket backend.
  void transmit_current();
  void start_weak();
  void arm_weak_retry();
  void transmit_weak();
  void handle_reply(NodeId from, Reader& r);

  ClientGroupInfo group_;
  Duration retry_;
  Rng rng_;                 // per-client stream for retransmit jitter
  TagHandler port_;         // [kClient]: requests out, replies in
  Duration retry_cur_ = 0;  // current backoff interval for the in-flight op
  std::uint64_t tc_ = 0;  // counter of the *current/last* ordered request

  // Ordered-op state.
  std::deque<OrderedOp> queue_;
  bool in_flight_ = false;
  Bytes current_wire_;  // signed frame of the in-flight request
  Time current_start_ = 0;
  std::map<NodeId, Bytes> replies_;  // replica -> result (for current tc)
  EventQueue::EventId retry_timer_ = EventQueue::kInvalidEvent;

  // Registry-backed stats (references stay valid for the World's lifetime).
  obs::Counter& retransmits_;
  obs::LogHistogram& lat_ordered_;
  obs::LogHistogram& lat_direct_;

  // Direct-read state (weak reads, and BFT-style optimized strong reads):
  // one outstanding direct op at a time.
  struct WeakOp {
    Bytes op;
    OpCallback cb;
    OpKind kind = OpKind::WeakRead;
    Time enqueued = 0;
    bool open = false;
  };
  void submit_direct(OpKind kind, Bytes op, OpCallback cb, bool open = false);
  std::deque<WeakOp> weak_queue_;
  bool weak_in_flight_ = false;
  Duration weak_retry_cur_ = 0;  // current backoff interval for the direct op
  std::uint64_t weak_attempts_ = 0;  // retransmissions of the in-flight direct op
  std::uint64_t weak_counter_ = 0;
  Time weak_start_ = 0;
  std::map<NodeId, Bytes> weak_replies_;
  EventQueue::EventId weak_retry_timer_ = EventQueue::kInvalidEvent;
};

}  // namespace spider
