// PBFT consensus replica: Spider's agreement black box (paper Figure 12).
//
// Spider treats consensus as a pluggable black box with exactly this
// contract: order() submits a message, the deliver callback emits messages
// in a gap-free total order, and gc(s) discards everything before sequence
// number s (after which no sequence number < s may be delivered). Delivery
// here is batch-granular: a per-request consumer flattens each batch, whose
// requests take consecutive sequence numbers from the first.
//
// Features:
//   - three-phase normal case (pre-prepare / prepare / commit)
//   - request batching: the primary packs up to `max_batch` pending
//     requests into one consensus instance, cutting a batch when it fills
//     or when `batch_delay` expires. Sequence numbers keep counting
//     logical requests — an instance covers [seq, seq + batch_size - 1] —
//     so watermark windows and gc() stay request-granular
//   - pipelined instances within a watermark window
//   - view change + new view with prepared-certificate carry-over
//   - pluggable vote weights (classic 2f+1 quorums, or WHEAT-style weighted
//     voting for the BFT-WV baseline)
//   - garbage collection driven by the embedding layer's checkpoints via
//     gc(s), matching the paper's design where the consensus box is told
//     to "collect garbage before s+1" (Fig. 17, L. 46)
//
// Simplifications vs. Castro-Liskov: view-change messages assert stable
// floors / prepared sets under the sender's signature instead of carrying
// nested per-message proofs.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "consensus/pbft_messages.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"

namespace spider {

struct PbftConfig {
  std::vector<NodeId> replicas;   // all group members, index order
  std::uint32_t my_index = 0;
  std::uint32_t f = 1;            // tolerated Byzantine faults
  std::vector<std::uint32_t> weights;  // empty => all weight 1
  std::uint32_t quorum_weight = 0;     // 0 => 2f+1 (classic)

  std::uint64_t window = 256;     // max in-flight *requests* above the floor
  std::uint64_t max_batch = 1;    // requests packed into one instance
  Duration batch_delay = 0;       // max wait for a batch to fill (0 = next tick)
  Duration request_timeout = 2 * kSecond;      // pending-request liveness timer
  Duration view_change_timeout = 4 * kSecond;  // time to complete a view change

  [[nodiscard]] std::uint32_t n() const { return static_cast<std::uint32_t>(replicas.size()); }
  [[nodiscard]] std::uint32_t weight_of(std::uint32_t idx) const {
    return weights.empty() ? 1 : weights[idx];
  }
  [[nodiscard]] std::uint32_t quorum() const {
    return quorum_weight != 0 ? quorum_weight : 2 * f + 1;
  }
};

class PbftReplica : public Component {
 public:
  /// In-order delivery: one call per committed instance with the logical
  /// seq of its first request (the first delivered seq is 1). A null
  /// instance, decided during fault handling, delivers a batch holding a
  /// single empty request; consumers must still consume its seq.
  using BatchDeliverFn = std::function<void(SeqNr first, const std::vector<Bytes>& batch)>;

  PbftReplica(ComponentHost& host, PbftConfig config, BatchDeliverFn deliver,
              std::uint32_t tag = tags::kPbft);

  // Agreement black box ---------------------------------------------------
  /// Requests ordering of `m`. May be called on any replica; duplicates
  /// (same content) are ordered at most once.
  void order(Bytes m);
  /// Forget everything before (<) sequence number `s`. After this call no
  /// sequence number < s will be delivered; a replica that had not yet
  /// delivered up to s-1 skips forward (the caller has the state).
  void gc(SeqNr s);

  /// Drops pending (unordered) requests the predicate marks stale and
  /// cancels their liveness timers. Used by the embedding after adopting
  /// a checkpoint: requests it now knows were already executed elsewhere
  /// must stop triggering view changes (this replica missed their commit,
  /// e.g. across a partition or restart, so they would otherwise keep the
  /// request timer firing forever on a quiescent system).
  void drop_pending_if(const std::function<bool(BytesView)>& stale);

  // Component interface --------------------------------------------------
  void on_message(NodeId from, BytesView all) override;

  // Introspection (tests, stats) -----------------------------------------
  [[nodiscard]] ViewNr view() const { return view_; }
  [[nodiscard]] bool is_primary() const { return primary_index(view_) == cfg_.my_index; }
  [[nodiscard]] SeqNr floor() const { return floor_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_reqs_.size(); }
  /// Thin read of the registry counter `pbft_views_adopted{node, role=
  /// "consensus"}`; survives crash/restart of the same NodeId (monotone).
  [[nodiscard]] std::uint64_t views_adopted() const { return views_adopted_.value(); }
  [[nodiscard]] std::uint64_t batches_proposed() const { return batches_proposed_; }
  [[nodiscard]] std::uint64_t requests_proposed() const { return requests_proposed_; }

  /// Optional request validator (A-Validity hook); invalid requests are
  /// not proposed or prepared. Default accepts everything.
  std::function<bool(BytesView)> validate = [](BytesView) { return true; };

  // Byzantine flags (mute, mute_rx, equivocate) are read from the host
  // node's World entry where they act; a muted replica charges no MAC.

 private:
  struct Entry {
    ViewNr view = 0;
    bool has_preprepare = false;
    std::vector<Bytes> requests;  // empty = null request
    Sha256Digest digest{};
    std::set<std::uint32_t> prepares;  // replica indices incl. primary + self
    std::set<std::uint32_t> commits;
    bool prepare_sent = false;
    bool commit_sent = false;
    bool committed = false;

    [[nodiscard]] SeqNr covers() const {
      return requests.empty() ? 1 : static_cast<SeqNr>(requests.size());
    }
  };

  [[nodiscard]] std::uint32_t primary_index(ViewNr v) const { return static_cast<std::uint32_t>(v % cfg_.n()); }
  [[nodiscard]] std::uint32_t weight(const std::set<std::uint32_t>& s) const;
  [[nodiscard]] std::optional<std::uint32_t> index_of(NodeId node) const;
  [[nodiscard]] bool in_window(SeqNr s) const { return s > floor_ && s <= floor_ + cfg_.window; }
  /// Prepares/commits stay acceptable for an instance whose batch straddles
  /// the floor (its tail is still undelivered here).
  [[nodiscard]] bool instance_relevant(SeqNr s) const;

  void broadcast(BytesView inner, bool sign);
  /// MAC-authenticated unicast to one group member (equivocation splits).
  void send_authed(std::uint32_t idx, BytesView inner);

  void try_propose();
  void cut_batch();
  void arm_batch_timer();
  void propose(std::vector<Bytes> batch);
  void handle_preprepare(std::uint32_t from_idx, pbft::PrePrepareMsg m);
  void handle_prepare(std::uint32_t from_idx, pbft::PrepareMsg m);
  void handle_commit(std::uint32_t from_idx, pbft::CommitMsg m);
  void handle_viewchange(std::uint32_t from_idx, pbft::ViewChangeMsg m);
  void handle_newview(std::uint32_t from_idx, pbft::NewViewMsg m);

  /// View-rejoin evidence: a replica that fell behind on views (e.g. a
  /// crash-recovered replica restarting in view 0 while the group moved
  /// on) tracks the views peers authenticate their normal-case traffic
  /// with, and jumps forward once f+1 weight is observed in a higher view.
  void note_view_hint(std::uint32_t from_idx, ViewNr v);
  void adopt_view(ViewNr v);

  void maybe_send_commit(SeqNr s, Entry& e);
  void try_deliver();
  void deliver_requests(SeqNr start, SeqNr from, const std::vector<Bytes>& requests);
  void start_view_change(ViewNr target);
  void maybe_complete_view_change(ViewNr target);
  void enter_view(ViewNr v, SeqNr floor_hint, const std::vector<pbft::PreparedProof>& proposals);
  void arm_request_timer(std::uint64_t digest_key);
  void cancel_request_timer(std::uint64_t digest_key);
  void note_delivered(std::uint64_t digest_key);
  [[nodiscard]] bool already_known(std::uint64_t digest_key) const;
  /// Pops up to `limit` fresh pending requests (skipping stale queue keys).
  std::vector<Bytes> take_pending(std::uint64_t limit);

  PbftConfig cfg_;
  BatchDeliverFn deliver_;

  ViewNr view_ = 0;
  bool vc_active_ = false;
  ViewNr vc_target_ = 0;
  EventQueue::EventId vc_timer_ = EventQueue::kInvalidEvent;
  Duration vc_timeout_cur_ = 0;
  obs::Counter& views_adopted_;
  std::map<std::uint32_t, ViewNr> view_hints_;  // member -> highest view seen

  SeqNr floor_ = 0;           // everything <= floor_ is garbage-collected
  SeqNr next_seq_ = 1;        // next logical seq a primary assigns
  SeqNr last_delivered_ = 0;  // highest delivered (or skipped) seq
  std::uint64_t batches_proposed_ = 0;
  std::uint64_t requests_proposed_ = 0;
  EventQueue::EventId batch_timer_ = EventQueue::kInvalidEvent;

  std::map<SeqNr, Entry> log_;  // keyed by the instance's first logical seq
  // Pending (undelivered) requests by digest key + FIFO proposal order.
  std::unordered_map<std::uint64_t, Bytes> pending_reqs_;
  std::deque<std::uint64_t> pending_order_;
  std::unordered_set<std::uint64_t> in_log_;  // digests currently assigned an instance
  std::unordered_map<std::uint64_t, EventQueue::EventId> request_timers_;
  std::unordered_set<std::uint64_t> known_;  // delivered digests (dedup)
  std::deque<std::uint64_t> known_order_;    // bounded pruning

  std::map<ViewNr, std::map<std::uint32_t, pbft::ViewChangeMsg>> vcs_;
};

}  // namespace spider
