#include "shard/shard_map.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider {

std::uint64_t ShardMap::hash_key(std::string_view key) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  // FNV-1a mixes its low bits well but not the high ones, and the range
  // table partitions on the high end — finish with murmur3's fmix64 so
  // similar short keys spread over all ranges.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

ShardMap ShardMap::uniform(std::uint32_t shards) {
  if (shards == 0) throw std::invalid_argument("ShardMap: shards must be >= 1");
  ShardMap m;
  m.shards_ = shards;
  m.version_ = 1;
  const std::uint64_t step = ~std::uint64_t{0} / shards;
  for (std::uint32_t s = 0; s < shards; ++s) {
    m.ranges_.push_back(ShardRange{step * s, s});
  }
  return m;
}

std::uint32_t ShardMap::shard_of_hash(std::uint64_t h) const {
  // Last range whose start <= h. ranges_ is sorted with ranges_[0].start == 0.
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), h,
                             [](std::uint64_t v, const ShardRange& r) { return v < r.start; });
  return std::prev(it)->shard;
}

void ShardMap::check(const std::vector<ShardRange>& ranges, std::uint32_t shards) {
  if (ranges.empty()) throw std::invalid_argument("ShardMap: ranges must not be empty");
  if (ranges.front().start != 0) {
    throw std::invalid_argument("ShardMap: first range must start at 0");
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (i > 0 && ranges[i].start <= ranges[i - 1].start) {
      throw std::invalid_argument("ShardMap: range starts must be strictly increasing");
    }
    if (ranges[i].shard >= shards) {
      throw std::invalid_argument("ShardMap: range references unknown shard");
    }
  }
}

void ShardMap::set_ranges(std::vector<ShardRange> ranges, std::uint64_t version) {
  check(ranges, shards_);
  if (version <= version_) {
    throw std::invalid_argument("ShardMap: version must be strictly newer");
  }
  ranges_ = std::move(ranges);
  version_ = version;
}

void ShardMap::validate() const {
  // The table came off the wire: invariant violations are wire corruption
  // (or a Byzantine sender), not programming errors, and must surface as
  // SerdeError so the decoding caller (codec::try_decode, a checkpoint
  // restore) refuses the bytes instead of letting std::invalid_argument
  // escape and kill the node.
  if (shards_ == 0) throw SerdeError("ShardMap: shards must be >= 1");
  try {
    check(ranges_, shards_);
  } catch (const std::invalid_argument& e) {
    throw SerdeError(e.what());
  }
}

void ShardMapDelta::validate() const {
  if (new_version <= base_version) {
    throw SerdeError("ShardMapDelta: new version must be newer than base");
  }
  if (hi != 0 && lo >= hi) throw SerdeError("ShardMapDelta: empty range");
}

ShardMap ShardMap::with_delta(const ShardMapDelta& delta) const {
  if (delta.base_version != version_) {
    throw std::invalid_argument("ShardMap: delta base version mismatch");
  }
  if (delta.new_version <= version_) {
    throw std::invalid_argument("ShardMap: delta version must be strictly newer");
  }
  if (delta.to_shard >= shards_) {
    throw std::invalid_argument("ShardMap: delta references unknown shard");
  }
  // Work in 65-bit space so "top of the hash space" (exclusive) is a real
  // boundary instead of a wrap-around special case.
  using U128 = unsigned __int128;
  const U128 top = U128{1} << 64;
  const U128 lo = delta.lo;
  const U128 hi = delta.hi == 0 ? top : U128{delta.hi};
  if (lo >= hi) throw std::invalid_argument("ShardMap: delta range is empty");

  // Split every existing range against [lo, hi): pieces outside keep their
  // owner, the piece inside moves. Pushes are strictly increasing, so a
  // plain adjacent-owner merge canonicalizes the result.
  std::vector<ShardRange> out;
  auto push = [&out](U128 start, std::uint32_t shard) {
    if (!out.empty() && out.back().shard == shard) return;
    out.push_back(ShardRange{static_cast<std::uint64_t>(start), shard});
  };
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const U128 s = ranges_[i].start;
    const U128 e = i + 1 < ranges_.size() ? U128{ranges_[i + 1].start} : top;
    const std::uint32_t owner = ranges_[i].shard;
    if (s < lo) push(s, owner);
    if (e > lo && s < hi) push(std::max(s, lo), delta.to_shard);
    if (e > hi) push(std::max(s, hi), owner);
  }

  ShardMap m;
  m.shards_ = shards_;
  m.version_ = delta.new_version;
  m.ranges_ = std::move(out);
  check(m.ranges_, m.shards_);
  return m;
}

bool ShardMap::sole_owner_of(std::uint64_t lo, std::uint64_t hi,
                             std::uint32_t* owner) const {
  const std::uint32_t first = shard_of_hash(lo);
  for (const ShardRange& r : ranges_) {
    if (r.start > lo && (hi == 0 || r.start < hi) && r.shard != first) return false;
  }
  if (owner != nullptr) *owner = first;
  return true;
}

}  // namespace spider
