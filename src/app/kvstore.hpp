// Deterministic key-value store — the application used throughout the
// paper's evaluation (clients issue 200-byte writes/reads against a KV
// store). Multi-key operations (MGet/MPut) act atomically *within* one
// store instance; the sharded router fans them out per shard, so across
// shards they are not atomic.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "app/application.hpp"
#include "common/codec.hpp"

namespace spider {

/// Operations understood by the KV store.
enum class KvOp : std::uint8_t { Put = 1, Get = 2, Del = 3, Size = 4, MGet = 5, MPut = 6 };

template <>
struct codec::WireEnum<KvOp> {
  static constexpr KvOp first = KvOp::Put, last = KvOp::MPut;
};

// ---- wire formats ---------------------------------------------------------
// An operation is [KvOp][fields of its format]; every field list is below
// (common/codec.hpp). Ops decode zero-copy: values stay views into the op.

/// Put, Get, Del and Size: [key][value]. Only Put carries a value, and Size
/// has no key; the unused fields go on the wire empty.
struct KvKeyOp {
  std::string key;
  BytesView value;
  static auto fields(auto& m, auto&& f) { return f(m.key, m.value); }
};

struct KvMGetOp {
  std::vector<std::string> keys;
  static auto fields(auto& m, auto&& f) { return f(m.keys); }
};

struct KvMPutOp {
  std::vector<std::pair<std::string, BytesView>> pairs;
  static auto fields(auto& m, auto&& f) { return f(m.pairs); }
};

/// Every reply: [u8 status][bytes body]. Status 1 = found/ok, 0 = missing or
/// refused, kWrongShardStatus (2, shard/migration.hpp) = a redirect whose
/// body is the replica's shard map. Get answers with the value as body,
/// Size with a u64 key count, MGet with a KvMgetReply, MPut with a
/// KvMputReply; Put and Del send no body.
struct KvReplyMsg {
  std::uint8_t status = 0;
  BytesView body;
  static auto fields(auto& m, auto&& f) { return f(m.status, m.body); }
};

/// Encodes an ok (1) or failed (0) reply frame.
Bytes kv_reply(bool ok, BytesView body = {});

/// Builds encoded KV operations (client-side helpers).
Bytes kv_put(const std::string& key, BytesView value);
Bytes kv_get(const std::string& key);
Bytes kv_del(const std::string& key);
Bytes kv_size();
Bytes kv_mget(const std::vector<std::string>& keys);
Bytes kv_mput(const std::vector<std::pair<std::string, Bytes>>& pairs);

/// Decoded view of an encoded KV operation: the opcode plus every key (and,
/// for Put/MPut, the parallel value list). Shared between the store itself
/// and the cross-shard router, which must know the keys to pick a shard.
/// Routing-only callers pass with_values = false to skip copying payloads.
struct KvParsedOp {
  KvOp kind = KvOp::Get;
  std::vector<std::string> keys;  // empty for Size
  std::vector<Bytes> values;      // parallel to keys for Put/MPut
};
KvParsedOp kv_parse_op(BytesView op, bool with_values = true);

/// A decoded reply (ok = status 1), and one entry of an MGet reply body.
struct KvReply {
  bool ok = false;
  Bytes value;
  static auto fields(auto& m, auto&& f) { return f(m.ok, m.value); }
};
KvReply kv_decode_reply(BytesView reply);

/// MPut reply: success flag (the frame's status) + the shard sequence
/// number (count of mutating ops this store has applied) right after the
/// MPut took effect, the reply's body.
struct KvMputReply {
  bool ok = false;
  std::uint64_t shard_seq = 0;
  static auto fields(auto& m, auto&& f) { return f(m.shard_seq); }
};
KvMputReply kv_decode_mput_reply(BytesView reply);

/// MGet reply body: the shard sequence number observed by the read plus one
/// (ok, value) entry per requested key, in request order. Only ordered
/// (strong) MGets carry a real shard_seq; the weak fast path reports 0,
/// so its replies stay quorum-matchable under concurrent writes.
struct KvMgetReply {
  std::uint64_t shard_seq = 0;
  std::vector<KvReply> entries;
  static auto fields(auto& m, auto&& f) { return f(m.shard_seq, m.entries); }
};
KvMgetReply kv_decode_mget_reply(BytesView reply);

/// Snapshot image: the mutation count and every entry, keys ascending.
struct KvImage {
  std::uint64_t version = 0;
  std::map<std::string, Bytes> data;
  static auto fields(auto& m, auto&& f) { return f(m.version, m.data); }
};

/// A moved key range (extract_keys / absorb_keys), keys ascending.
struct KvRange {
  std::map<std::string, Bytes> entries;
  static auto fields(auto& m, auto&& f) { return f(m.entries); }
};

class KvStore : public Application {
 public:
  Bytes execute(BytesView op) override;
  Bytes execute_readonly(BytesView op) const override;
  Bytes execute_weak(BytesView op) const override;
  Bytes snapshot() const override;
  void restore(BytesView snapshot) override;
  std::unique_ptr<Application> clone_empty() const override;
  std::vector<std::string> op_keys(BytesView op) const override;
  Bytes extract_keys(const std::function<bool(std::string_view)>& moved) override;
  void absorb_keys(BytesView state) override;

  [[nodiscard]] std::size_t size() const { return state_.data.size(); }
  /// Shard sequence number: mutating ops applied so far. Identical across
  /// replicas of one shard (writes execute at every group), which is what
  /// lets clients check read-your-writes per shard.
  [[nodiscard]] std::uint64_t shard_seq() const { return state_.version; }

 private:
  enum class Mode { Mutate, OrderedRead, WeakRead };
  Bytes apply(BytesView op, Mode mode);
  KvImage state_;
};

}  // namespace spider
