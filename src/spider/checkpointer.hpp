// Group checkpoint component (paper Fig. 13 + §3.4).
//
// gen_cp(s, state): hash the snapshot, broadcast a signed <Checkpoint, h, s>
// within the group; once f+1 matching signed messages for the same (h, s)
// are collected the checkpoint is *stable* (CP-Safety: at least one correct
// replica created it) and stable_cp fires. A replica that lacks the
// snapshot bytes fetches them (with the f+1-signature proof attached) from
// a peer — including peers in *other* execution groups, which is how
// trailing groups catch up under global flow control (§3.5).
#pragma once

#include <map>
#include <set>
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
  /// Resolves a node id -> may it sign checkpoints we trust? Used to verify
  /// proofs from peers of other groups (membership comes from the registry).
  using MemberCheck = std::function<bool(NodeId)>;

  Checkpointer(ComponentHost& host, std::uint32_t tag, std::vector<NodeId> group,
               std::uint32_t f, StableFn stable, MemberCheck trusted = {});
  ~Checkpointer() override;

  /// Creates and distributes this replica's checkpoint for sequence number s.
  void gen_cp(SeqNr s, Bytes state);

  /// Actively fetches a checkpoint with sequence number >= s from the group
  /// (and any extra peers registered with add_fetch_peers). Retries until a
  /// newer checkpoint is delivered.
  void fetch_cp(SeqNr s);

  /// Additional peers (e.g. members of other execution groups) queried by
  /// fetch_cp.
  void add_fetch_peers(const std::vector<NodeId>& peers);

  /// Checkpoint-on-demand: when a trusted peer asks for a checkpoint we
  /// cannot serve (no stable state at or above the requested sequence
  /// number), the checkpointer snapshots the embedding's current state via
  /// this callback and runs a regular gen_cp on it. Once f+1 quiescent
  /// replicas do so, the checkpoint stabilizes and the fetcher — and any
  /// trailing group member — can adopt it. This is what makes crash
  /// recovery work when the interval checkpoint never happened or traffic
  /// has stopped. Returns (seq, state); seq 0 means nothing to snapshot.
  std::function<std::pair<SeqNr, Bytes>()> snapshot_now;

  void on_message(NodeId from, BytesView all) override;

  [[nodiscard]] SeqNr last_stable() const { return last_stable_; }

 private:
  struct Pending {
    Sha256Digest digest{};
    std::map<NodeId, Bytes> sigs;  // signer -> signature
  };

  void check_stable(SeqNr s);
  void deliver(SeqNr s, Payload state);
  Bytes proof_for(SeqNr s) const;
  bool send_state(NodeId to, SeqNr s);
  void handle_state(const StateMsg& m);
  void retry_fetch();

  std::vector<NodeId> group_;
  std::uint32_t f_;
  StableFn stable_;
  MemberCheck trusted_;

  SeqNr last_stable_ = 0;
  // Candidate checkpoints: s -> digest -> signature set.
  std::map<SeqNr, std::map<std::uint64_t, Pending>> candidates_;
  // Snapshots are Payloads: the digest a snapshot is voted under is
  // memoized, so re-checks in check_stable/deliver reuse one hash, and a
  // stable state served to peers shares the buffer instead of copying.
  std::map<SeqNr, Payload> own_snapshots_;     // states this replica produced
  std::map<SeqNr, Payload> stable_states_;     // stable states (for peers)
  std::map<SeqNr, Bytes> stable_proofs_;       // serialized f+1 sig proofs
  std::vector<NodeId> fetch_peers_;
  SeqNr fetch_target_ = 0;
  EventQueue::EventId fetch_timer_ = EventQueue::kInvalidEvent;
  Duration fetch_retry_ = 400 * kMillisecond;
};

}  // namespace spider
