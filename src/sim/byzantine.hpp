// Per-replica Byzantine behaviour toggles.
//
// Every node's flags live in one World entry (World::byzantine(NodeId)),
// which outlives the replica process: a process rebuilt by restart_node
// under the same id reads the entry its predecessor read, so scheduled
// misbehaviour survives a crash. FaultPlan::byzantine_at windows write the
// entry; tests may write it directly. Each protocol class reads the flag
// it acts on through its host node (SimNode::byzantine()) at the point
// where it acts: PbftReplica honours mute / mute_rx / equivocate, the
// Checkpointer forge_checkpoints, ClientPort corrupt_replies and the
// Spider execution replica drop_forwarding. A flag no class on the node
// acts on is ignored, so one schedule vocabulary covers every deployment.
//
// kByzantineFlags lists every flag once, in field order, with its name in
// fault scripts and describe() output. A new behaviour is its field, its
// table row and the read site that honours it.
#pragma once

#include <algorithm>
#include <array>

#include "common/bytes.hpp"

namespace spider {

struct ByzantineFlags {
  /// Client replies carry a tampered value (must be outvoted by f+1
  /// matching correct replies; f+1 corruptors are the checker's canary).
  bool corrupt_replies = false;
  /// Silently refuse to forward client requests into the request channel.
  bool drop_forwarding = false;
  /// Fail-silent consensus: stop sending protocol messages.
  bool mute = false;
  /// Fully-isolated Byzantine node: also drop inbound protocol handling.
  bool mute_rx = false;
  /// An equivocating primary sends conflicting pre-prepares for the same
  /// sequence number to disjoint halves of the group.
  bool equivocate = false;
  /// Emit checkpoint votes and forged "stable" certificates for a tampered
  /// state digest (correct replicas must reject both).
  bool forge_checkpoints = false;

  [[nodiscard]] bool any() const;
};

/// One row per flag, in field order. Row i is bit i of a FaultPlan
/// script's Byzantine mask, and `name` is the flag's label.
struct ByzantineFlag {
  const char* name;
  bool ByzantineFlags::*field;
};
inline constexpr std::array<ByzantineFlag, 6> kByzantineFlags = {{
    {"corrupt-replies", &ByzantineFlags::corrupt_replies},
    {"drop-forwarding", &ByzantineFlags::drop_forwarding},
    {"mute", &ByzantineFlags::mute},
    {"mute-rx", &ByzantineFlags::mute_rx},
    {"equivocate", &ByzantineFlags::equivocate},
    {"forge-checkpoints", &ByzantineFlags::forge_checkpoints},
}};

inline bool ByzantineFlags::any() const {
  return std::any_of(kByzantineFlags.begin(), kByzantineFlags.end(),
                     [this](const ByzantineFlag& f) { return this->*f.field; });
}

/// Shared corrupt_replies tampering, applied to an encoded reply payload
/// by every replica type that honours the flag. Flips the last byte when
/// the reply carries a payload beyond the minimal KV reply header (5 bytes:
/// status + value length) so the *decoded* value changes. A header-only
/// reply [status][len 0] becomes [status][len 1][0xbd], a one-byte value:
/// the wire image differs from correct replies (so client voting sees a
/// Byzantine reply) and still decodes canonically (an appended byte would
/// be rejected as trailing). Deterministic, so f+1 corruptors produce
/// byte-identical tampered replies — the linearizability checker's canary
/// relies on them winning the client's matching-reply vote.
inline void corrupt_reply_payload(Bytes& out) {
  if (out.size() > 5) {
    out.back() ^= 0xbd;
  } else {
    if (out.size() == 5) out[1] = 1;  // the value length's low byte
    out.push_back(0xbd);
  }
}

}  // namespace spider
