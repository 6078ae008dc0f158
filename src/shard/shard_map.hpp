// Keyspace partition table (the sharding subsystem's source of truth).
//
// The KV keyspace is split into explicit, contiguous hash ranges over the
// 64-bit FNV-1a hash of the key; each range is owned by exactly one shard
// (one independent Spider core with its own agreement group). The table is
// versioned so a future rebalance can ship a replacement table through the
// §3.6 admin path: routers compare versions and adopt the newer table.
#pragma once

#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"

namespace spider {

/// One partition: owns hashes in [start, next range's start), the last
/// range extending to the top of the 64-bit hash space.
struct ShardRange {
  std::uint64_t start = 0;   // inclusive lower bound of the hash range
  std::uint32_t shard = 0;   // owning shard index, < shard_count()
  static auto fields(auto& m, auto&& f) { return f(m.start, m.shard); }
};

/// Shard index used when an operation cannot be attributed to one shard
/// (spanning multi-key ops, routing failures).
constexpr std::uint32_t kNoShard = 0xffffffffu;

/// A single-range ownership move: the unit the live-resharding admin path
/// ships through MigrateOut/MigrateIn. Applies on top of exactly
/// `base_version` and moves hashes in [lo, hi) — hi == 0 meaning the top of
/// the hash space — to `to_shard`.
struct ShardMapDelta {
  std::uint64_t base_version = 0;
  std::uint64_t new_version = 0;  // must be > base_version
  std::uint64_t lo = 0;           // inclusive lower bound of the moved range
  std::uint64_t hi = 0;           // exclusive upper bound; 0 = top of space
  std::uint32_t to_shard = 0;

  static auto fields(auto& m, auto&& f) {
    return f(m.base_version, m.new_version, m.lo, m.hi, m.to_shard);
  }
  /// Throws SerdeError for a delta that can never apply: a new version not
  /// newer than its base, or an empty range.
  void validate() const;
};

class ShardMap {
 public:
  /// Equal-width partition of the hash space over `shards` shards,
  /// version 1. Throws std::invalid_argument for shards == 0.
  static ShardMap uniform(std::uint32_t shards);

  /// Deterministic key hash (FNV-1a 64) shared by every router.
  static std::uint64_t hash_key(std::string_view key);

  [[nodiscard]] std::uint32_t shard_of(std::string_view key) const {
    return shard_of_hash(hash_key(key));
  }
  [[nodiscard]] std::uint32_t shard_of_hash(std::uint64_t h) const;

  [[nodiscard]] std::uint32_t shard_count() const { return shards_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// Installs a rebalanced table. The new ranges must cover the full hash
  /// space (first start == 0, strictly increasing starts), reference only
  /// valid shards, and carry a strictly newer version.
  void set_ranges(std::vector<ShardRange> ranges, std::uint64_t version);

  /// Returns a copy with `delta` spliced in: hashes in [lo, hi) reassigned
  /// to delta.to_shard, adjacent same-owner ranges merged, version bumped to
  /// delta.new_version. Throws std::invalid_argument when the delta does not
  /// apply to this table (base version mismatch, unknown shard, empty range,
  /// stale new version).
  [[nodiscard]] ShardMap with_delta(const ShardMapDelta& delta) const;

  /// True iff every hash in [lo, hi) (hi == 0 = top of space) is owned by a
  /// single shard; that shard is written to *owner on success.
  [[nodiscard]] bool sole_owner_of(std::uint64_t lo, std::uint64_t hi,
                                   std::uint32_t* owner) const;

  // Wire form: codec::encode(map) / codec::decode<ShardMap>(bytes).
 private:
  friend struct codec::Access;
  ShardMap() = default;
  static void check(const std::vector<ShardRange>& ranges, std::uint32_t shards);

  static auto fields(auto& m, auto&& f) { return f(m.version_, m.shards_, m.ranges_); }
  /// Malformed wire tables — gaps, overlaps, out-of-range shard ids, zero
  /// shard count — throw SerdeError like any other wire-decode failure, so
  /// a Byzantine redirect cannot install a broken table (its decode fails,
  /// and the caller refuses it like any other malformed bytes).
  void validate() const;

  std::uint32_t shards_ = 0;
  std::uint64_t version_ = 0;
  std::vector<ShardRange> ranges_;
};

}  // namespace spider
