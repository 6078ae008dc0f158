// PBFT wire messages (Castro & Liskov, OSDI '99) with weighted-voting
// support. Normal-case messages are HMAC-authenticated; view-change and
// new-view messages carry signatures, as in the original protocol. Each
// lists its fields once (common/codec.hpp); the MsgType byte goes in front.
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/ids.hpp"
#include "crypto/sha256.hpp"

namespace spider::pbft {

enum class MsgType : std::uint8_t {
  PrePrepare = 1,
  Prepare = 2,
  Commit = 3,
  ViewChange = 4,
  NewView = 5,
};

/// A pre-prepare proposes one consensus instance carrying a *batch* of
/// requests. `seq` is the logical sequence number of the first request;
/// the instance covers [seq, seq + max(1, requests.size()) - 1], so
/// sequence numbers keep counting individual requests, not batches. An
/// empty batch is the null request (consumes one sequence number).
struct PrePrepareMsg {
  ViewNr view = 0;
  SeqNr seq = 0;
  std::vector<Bytes> requests;
  static auto fields(auto& m, auto&& f) { return f(m.view, m.seq, m.requests); }
};

/// Prepare and Commit: one body, only the type byte differs.
struct PrepareMsg {
  ViewNr view = 0;
  SeqNr seq = 0;
  Sha256Digest digest{};
  std::uint32_t replica = 0;  // sender index
  static auto fields(auto& m, auto&& f) { return f(m.view, m.seq, m.digest, m.replica); }
};
using CommitMsg = PrepareMsg;

/// Certificate that an instance prepared in some view; carried inside
/// view-change messages (with the full request batch so the new primary
/// can re-propose without a fetch protocol).
struct PreparedProof {
  SeqNr seq = 0;  // logical seq of the batch's first request
  ViewNr view = 0;
  std::vector<Bytes> requests;  // empty = null request

  /// Number of logical sequence numbers this instance occupies.
  [[nodiscard]] SeqNr covers() const {
    return requests.empty() ? 1 : static_cast<SeqNr>(requests.size());
  }
  static auto fields(auto& m, auto&& f) { return f(m.seq, m.view, m.requests); }
};

struct ViewChangeMsg {
  ViewNr new_view = 0;
  SeqNr stable_floor = 0;  // highest gc'd sequence number (watermark anchor)
  std::uint32_t replica = 0;
  std::vector<PreparedProof> prepared;
  static auto fields(auto& m, auto&& f) {
    return f(m.new_view, m.stable_floor, m.replica, m.prepared);
  }
};

struct NewViewMsg {
  ViewNr new_view = 0;
  SeqNr stable_floor = 0;  // max floor among the view-change quorum
  std::uint32_t replica = 0;
  /// Pre-prepares the new primary issues for in-flight instances; empty
  /// request = null request (no-op).
  std::vector<PreparedProof> proposals;
  static auto fields(auto& m, auto&& f) {
    return f(m.new_view, m.stable_floor, m.replica, m.proposals);
  }
};

/// Digest binding a request to nothing else (PBFT digests requests only;
/// (view, seq) binding happens via the message fields).
Sha256Digest request_digest(BytesView request);

/// Digest over a whole batch (length-prefixed concatenation, so request
/// boundaries are unambiguous). Prepare/commit messages certify this.
Sha256Digest batch_digest(const std::vector<Bytes>& requests);

}  // namespace spider::pbft
