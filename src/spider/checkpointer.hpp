// Group checkpoint component (paper Fig. 13, §3.4, §3.5): the one
// checkpoint policy of the agreement, execution and BFT replicas.
//
// Interval rule: executed(sn) takes a checkpoint once a full interval of
// logical requests has passed since the newest checkpoint taken or
// adopted (adopted(s) raises that mark). A replica calls it on a batch
// boundary, so a batch that jumps past an exact multiple still
// checkpoints, and never mid-batch.
//
// Stability: a checkpoint hashes the snapshot and broadcasts a signed
// <Checkpoint, h, s> within the group; once f+1 matching signed messages
// for the same (h, s) are collected the checkpoint is *stable* (CP-Safety:
// at least one correct replica created it) and the stable callback fires.
// The component keeps one stable record (seq, state, proof) to serve.
//
// Trusted groups: its own group plus the peer groups registered with
// add_peer_group (the other execution groups, which is how trailing
// groups catch up under global flow control, §3.5). Only their members
// may fetch, and fetch_cp asks the own group first, then the peer groups
// in GroupId order. A fetched state is adopted only with a proof of f+1
// valid signers of ONE trusted group: each group holds at most f faulty
// members, while signers pooled from several groups may all be faulty.
//
// On-demand snapshots: checkpoint_now() snapshots the replica's current
// state and runs a regular checkpoint on it. A trusted Fetch that the
// stable record cannot answer calls it, so once f+1 quiescent replicas
// do so the fetcher can adopt their checkpoint even when the interval
// checkpoint never happened or traffic stopped; the execution replica
// also calls it to certify a migration cut.
#pragma once

#include <algorithm>
#include <map>
#include <utility>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"
#include "sim/component.hpp"

namespace spider {

// ---- wire frames: [CheckpointMsgType][fields] -------------------------

enum class CheckpointMsgType : std::uint8_t { Checkpoint = 1, Fetch = 2, State = 3 };

/// <Checkpoint, h, s>, signed: a replica's vote for its state digest at s.
struct CheckpointMsg {
  SeqNr seq = 0;
  Sha256Digest digest{};
  static auto fields(auto& m, auto&& f) { return f(m.seq, m.digest); }
};

/// Asks a peer for a stable checkpoint at or above `seq`.
struct FetchMsg {
  SeqNr seq = 0;
  static auto fields(auto& m, auto&& f) { return f(m.seq); }
};

/// f+1 (signer, signature over its Checkpoint frame) pairs that make a
/// checkpoint stable. The signatures are views into the buffer the proof
/// was decoded from (or built over).
struct CheckpointProof {
  std::vector<std::pair<NodeId, BytesView>> sigs;
  static auto fields(auto& m, auto&& f) { return f(m.sigs); }
};

/// A stable checkpoint served to a peer, zero-copy: `state` is a view, and
/// `proof` is an encoded CheckpointProof, which must fill it exactly.
struct StateMsg {
  SeqNr seq = 0;
  BytesView state;
  BytesView proof;
  static auto fields(auto& m, auto&& f) { return f(m.seq, m.state, m.proof); }
};

// ---- checkpoint images ---------------------------------------------------
// The state a replica checkpoints; each image lists its fields once, like a
// wire message. Images are written with codec::write from the replica's
// live maps (Image<codec::Ref>: no copy, no size pass) and decoded into
// owned values (Image<codec::Own>). Map keys strictly ascend, so an image
// with unsorted or repeated keys is rejected.

/// An executing replica's image (Spider execution replicas, the BFT
/// baseline): [reply cache][application snapshot].
template <class Entry, template <class> class H = codec::Own>
struct ReplicaImage {
  H<std::map<NodeId, Entry>> replies;
  BytesView app;
  static auto fields(auto& m, auto&& f) { return f(m.replies, m.app); }
};

class Checkpointer : public Component {
 public:
  using StableFn = std::function<void(SeqNr s, BytesView state)>;
  /// The replica's current (sequence number, checkpoint image); sequence
  /// number 0 means nothing to snapshot.
  using SnapshotFn = std::function<std::pair<SeqNr, Bytes>()>;

  /// `interval` counts logical requests (`ka`, `ke` or the BFT baseline's
  /// `checkpoint_interval`).
  Checkpointer(ComponentHost& host, std::uint32_t tag, std::vector<NodeId> group,
               std::uint32_t f, std::uint64_t interval, SnapshotFn snapshot, StableFn stable);
  ~Checkpointer() override;

  /// The replica executed (or ordered) up to sn, a batch boundary:
  /// checkpoints if a full interval has passed since the newest checkpoint
  /// taken or adopted.
  void executed(SeqNr sn);
  /// Checkpoints the current snapshot now, whatever the interval.
  void checkpoint_now();
  /// The replica adopted a stable checkpoint at s: the interval counts
  /// from s unless a newer checkpoint was taken.
  void adopted(SeqNr s) { last_cp_ = std::max(last_cp_, s); }

  /// Actively fetches a checkpoint with sequence number >= s from the own
  /// group, then the peer groups. Retries until a newer checkpoint is
  /// delivered.
  void fetch_cp(SeqNr s);

  /// Trusts group g's members (another execution group) as fetchers and
  /// checkpoint signers, and asks them in fetch_cp.
  void add_peer_group(GroupId g, std::vector<NodeId> members);

  void on_message(NodeId from, BytesView all) override;

  [[nodiscard]] SeqNr last_stable() const { return stable_.seq; }

 private:
  struct Pending {
    Sha256Digest digest{};
    std::map<NodeId, Bytes> sigs;  // signer -> signature
  };

  void gen_cp(SeqNr s, Bytes state);
  void check_stable(SeqNr s);
  void deliver(SeqNr s, Payload state);
  bool send_state(NodeId to, SeqNr s);
  void handle_state(const StateMsg& m);
  void retry_fetch();
  /// The trusted group n belongs to (own or peer), nullptr if none.
  const std::vector<NodeId>* trusted_group(NodeId n) const;

  std::vector<NodeId> group_;
  std::uint32_t f_;
  std::uint64_t interval_;
  SnapshotFn snapshot_;
  StableFn on_stable_;
  std::map<GroupId, std::vector<NodeId>> peers_;

  SeqNr last_cp_ = 0;  // seq of the newest checkpoint taken or adopted
  // Candidate checkpoints: s -> digest -> signature set.
  std::map<SeqNr, std::map<std::uint64_t, Pending>> candidates_;
  // Snapshots are Payloads: the digest a snapshot is voted under is
  // memoized, so re-checks in check_stable/deliver reuse one hash, and the
  // stable state served to peers shares the buffer instead of copying.
  std::map<SeqNr, Payload> own_snapshots_;  // states this replica produced
  /// The newest stable checkpoint, served to fetching peers.
  struct Stable {
    SeqNr seq = 0;
    Payload state;
    Bytes proof;  // encoded CheckpointProof
  } stable_;
  SeqNr fetch_target_ = 0;
  EventQueue::EventId fetch_timer_ = EventQueue::kInvalidEvent;
  Duration fetch_retry_ = 400 * kMillisecond;
};

}  // namespace spider
