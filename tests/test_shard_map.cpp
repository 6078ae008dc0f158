#include <gtest/gtest.h>

#include <set>

#include "shard/shard_map.hpp"

namespace spider {
namespace {

TEST(ShardMap, UniformCoversAllShards) {
  ShardMap m = ShardMap::uniform(4);
  EXPECT_EQ(m.shard_count(), 4u);
  EXPECT_EQ(m.version(), 1u);
  ASSERT_EQ(m.ranges().size(), 4u);
  EXPECT_EQ(m.ranges().front().start, 0u);

  // A spread of keys must hit every shard (uniform hash over 4 partitions).
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 256; ++i) {
    std::uint32_t s = m.shard_of("key-" + std::to_string(i));
    ASSERT_LT(s, 4u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardMap, SingleShardOwnsEverything) {
  ShardMap m = ShardMap::uniform(1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(m.shard_of("k" + std::to_string(i)), 0u);
  }
}

TEST(ShardMap, RoutingIsDeterministic) {
  ShardMap a = ShardMap::uniform(8);
  ShardMap b = ShardMap::uniform(8);
  for (int i = 0; i < 128; ++i) {
    std::string key = "stable-" + std::to_string(i);
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
  }
}

TEST(ShardMap, HashBoundariesRouteByRange) {
  ShardMap m = ShardMap::uniform(2);
  std::uint64_t split = m.ranges()[1].start;
  EXPECT_EQ(m.shard_of_hash(0), 0u);
  EXPECT_EQ(m.shard_of_hash(split - 1), 0u);
  EXPECT_EQ(m.shard_of_hash(split), 1u);
  EXPECT_EQ(m.shard_of_hash(~std::uint64_t{0}), 1u);
}

TEST(ShardMap, ZeroShardsRejected) {
  EXPECT_THROW(ShardMap::uniform(0), std::invalid_argument);
}

TEST(ShardMap, SetRangesRebalances) {
  ShardMap m = ShardMap::uniform(2);
  // Move the split point: shard 1 now owns the top quarter only.
  std::uint64_t quarter = ~std::uint64_t{0} / 4;
  m.set_ranges({{0, 0}, {3 * quarter, 1}}, 2);
  EXPECT_EQ(m.version(), 2u);
  EXPECT_EQ(m.shard_of_hash(2 * quarter), 0u);  // previously shard 1's
  EXPECT_EQ(m.shard_of_hash(3 * quarter), 1u);
}

TEST(ShardMap, SetRangesValidation) {
  ShardMap m = ShardMap::uniform(2);
  EXPECT_THROW(m.set_ranges({}, 2), std::invalid_argument);                 // empty
  EXPECT_THROW(m.set_ranges({{5, 0}}, 2), std::invalid_argument);          // hole at 0
  EXPECT_THROW(m.set_ranges({{0, 0}, {0, 1}}, 2), std::invalid_argument);  // not increasing
  EXPECT_THROW(m.set_ranges({{0, 7}}, 2), std::invalid_argument);          // unknown shard
  EXPECT_THROW(m.set_ranges({{0, 0}}, 1), std::invalid_argument);          // stale version
}

TEST(ShardMap, SetRangesFullRingSingleShard) {
  // A rebalance may give one shard the whole ring; the others then own
  // nothing but remain valid routing targets for a later table.
  ShardMap m = ShardMap::uniform(4);
  m.set_ranges({{0, 2}}, 2);
  EXPECT_EQ(m.ranges().size(), 1u);
  EXPECT_EQ(m.shard_count(), 4u);  // shard count is not changed by ranges
  for (std::uint64_t h : {0ull, 1ull, ~0ull / 2, ~0ull}) {
    EXPECT_EQ(m.shard_of_hash(h), 2u) << h;
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(m.shard_of("k" + std::to_string(i)), 2u);
  }

  // And back out of the degenerate table with a newer version.
  m.set_ranges({{0, 0}, {~0ull / 2, 1}}, 3);
  EXPECT_EQ(m.shard_of_hash(0), 0u);
  EXPECT_EQ(m.shard_of_hash(~0ull), 1u);
}

TEST(ShardMap, AdjacentBoundaryKeysSplitExactlyAtRangeStart) {
  // Craft the boundary at a real key's hash: the key sits in the upper
  // range (starts are inclusive), and moving the boundary one hash value
  // up flips it to the lower range.
  ShardMap m = ShardMap::uniform(2);
  const std::string key = "boundary-key";
  std::uint64_t h = ShardMap::hash_key(key);
  ASSERT_GT(h, 0u);  // holds for this key; keeps start != 0 valid below

  m.set_ranges({{0, 0}, {h, 1}}, 2);
  EXPECT_EQ(m.shard_of(key), 1u);
  EXPECT_EQ(m.shard_of_hash(h - 1), 0u);  // the adjacent hash stays below

  m.set_ranges({{0, 0}, {h + 1, 1}}, 3);
  EXPECT_EQ(m.shard_of(key), 0u);
  EXPECT_EQ(m.shard_of_hash(h + 1), 1u);
}

TEST(ShardMap, SetRangesRejectsZeroWidthRange) {
  // Equal adjacent starts would make a zero-width (empty) range; the
  // strictly-increasing rule forbids it in any position.
  ShardMap m = ShardMap::uniform(3);
  EXPECT_THROW(m.set_ranges({{0, 0}, {5, 1}, {5, 2}}, 2), std::invalid_argument);
  EXPECT_THROW(m.set_ranges({{0, 0}, {0, 1}, {9, 2}}, 2), std::invalid_argument);
  // Version must not have been burned by the failed attempts.
  m.set_ranges({{0, 1}}, 2);
  EXPECT_EQ(m.version(), 2u);
}

TEST(ShardMap, EncodeDecodeRoundTrip) {
  ShardMap m = ShardMap::uniform(3);
  m.set_ranges({{0, 2}, {1000, 0}, {2000, 1}}, 5);
  Bytes wire = codec::encode(m);
  ShardMap back = codec::decode<ShardMap>(wire);
  EXPECT_EQ(back.version(), 5u);
  EXPECT_EQ(back.shard_count(), 3u);
  for (std::uint64_t h : {0ull, 999ull, 1000ull, 1999ull, 2000ull, ~0ull}) {
    EXPECT_EQ(back.shard_of_hash(h), m.shard_of_hash(h)) << h;
  }
}

TEST(ShardMap, DecodeRejectsMalformedTable) {
  ShardMap m = ShardMap::uniform(2);
  Bytes wire = codec::encode(m);
  // Corrupt the first range start (offset: u64 version + u32 shards + u32
  // count = 16) so the table no longer covers the hash space from 0.
  wire[16] = 1;
  // SerdeError, not invalid_argument: decode feeds on untrusted bytes
  // (Byzantine WrongShard redirects carry maps), and the message-boundary
  // catch blocks only swallow SerdeError. Anything else would escape and
  // crash the client on a hostile reply.
  EXPECT_THROW(codec::decode<ShardMap>(wire), SerdeError);
}

TEST(ShardMap, DecodeRejectsOverlappingAndUnsortedTables) {
  ShardMap m = ShardMap::uniform(3);
  m.set_ranges({{0, 0}, {1000, 1}, {2000, 2}}, 2);
  Bytes good = codec::encode(m);

  // Duplicate adjacent starts (zero-width range). Layout after the 16-byte
  // header: count entries of [u64 start][u32 shard].
  {
    Bytes wire = good;
    std::size_t second_start = 16 + 12;  // entry 1's start field
    for (int i = 0; i < 8; ++i) wire[second_start + i] = 0;
    EXPECT_THROW(codec::decode<ShardMap>(wire), SerdeError);
  }
  // Out-of-range owner shard.
  {
    Bytes wire = good;
    wire[16 + 8] = 9;  // entry 0's shard field
    EXPECT_THROW(codec::decode<ShardMap>(wire), SerdeError);
  }
  // Zero shard count.
  {
    Bytes wire = good;
    for (int i = 0; i < 4; ++i) wire[8 + i] = 0;  // shards field after u64 version
    EXPECT_THROW(codec::decode<ShardMap>(wire), SerdeError);
  }
  // Truncated table (count says more entries than bytes present).
  {
    Bytes wire = good;
    wire.resize(wire.size() - 4);
    EXPECT_THROW(codec::decode<ShardMap>(wire), SerdeError);
  }
  // The unmodified encoding still decodes, so the corruptions above are what
  // the rejections reacted to.
  ShardMap back = codec::decode<ShardMap>(good);
  EXPECT_EQ(back.version(), 2u);
}

TEST(ShardMapDelta, CodecRoundTripAndValidation) {
  ShardMapDelta d{/*base_version=*/3, /*new_version=*/4, /*lo=*/1000, /*hi=*/2000,
                  /*to_shard=*/1};
  Bytes wire = codec::encode(d);
  // decode<> also rejects trailing bytes (the former r.expect_done()).
  ShardMapDelta back = codec::decode<ShardMapDelta>(wire);
  EXPECT_EQ(back.base_version, 3u);
  EXPECT_EQ(back.new_version, 4u);
  EXPECT_EQ(back.lo, 1000u);
  EXPECT_EQ(back.hi, 2000u);
  EXPECT_EQ(back.to_shard, 1u);

  // Non-monotonic version bump.
  EXPECT_THROW(codec::decode<ShardMapDelta>(codec::encode(ShardMapDelta{4, 4, 0, 10, 0})),
               SerdeError);
  // Inverted range (hi != 0 means exclusive upper bound; lo must be below).
  EXPECT_THROW(codec::decode<ShardMapDelta>(codec::encode(ShardMapDelta{1, 2, 50, 10, 0})),
               SerdeError);
}

TEST(ShardMap, WithDeltaSplicesRange) {
  // 4 uniform shards; move the middle half of shard 1's range to shard 3.
  ShardMap m = ShardMap::uniform(4);
  std::uint64_t s1 = m.ranges()[1].start;
  std::uint64_t s2 = m.ranges()[2].start;
  std::uint64_t width = s2 - s1;
  std::uint64_t lo = s1 + width / 4;
  std::uint64_t hi = s1 + 3 * (width / 4);

  ShardMap next = m.with_delta(ShardMapDelta{m.version(), m.version() + 1, lo, hi, 3});
  EXPECT_EQ(next.version(), m.version() + 1);
  EXPECT_EQ(next.shard_count(), 4u);
  EXPECT_EQ(next.shard_of_hash(s1), 1u);       // head of the old range stays
  EXPECT_EQ(next.shard_of_hash(lo), 3u);       // moved slice
  EXPECT_EQ(next.shard_of_hash(hi - 1), 3u);
  EXPECT_EQ(next.shard_of_hash(hi), 1u);       // tail of the old range stays
  EXPECT_EQ(next.shard_of_hash(s2), 2u);       // neighbors untouched
  // The source map is unchanged (with_delta is const).
  EXPECT_EQ(m.shard_of_hash(lo), 1u);
}

TEST(ShardMap, WithDeltaMergesAdjacentSameOwnerRanges) {
  // Moving a whole existing range to its left neighbor's owner must merge
  // ranges instead of leaving a redundant boundary.
  ShardMap m = ShardMap::uniform(4);
  std::uint64_t s1 = m.ranges()[1].start;
  std::uint64_t s2 = m.ranges()[2].start;
  ShardMap next = m.with_delta(ShardMapDelta{m.version(), m.version() + 1, s1, s2, 0});
  EXPECT_EQ(next.shard_of_hash(s1), 0u);
  EXPECT_EQ(next.shard_of_hash(s2 - 1), 0u);
  EXPECT_EQ(next.shard_of_hash(s2), 2u);
  ASSERT_EQ(next.ranges().size(), 3u);  // [0 -> shard0], [s2 -> 2], [s3 -> 3]
  EXPECT_EQ(next.ranges()[0].start, 0u);
  EXPECT_EQ(next.ranges()[1].start, s2);
}

TEST(ShardMap, WithDeltaHiZeroMeansTopOfHashSpace) {
  ShardMap m = ShardMap::uniform(2);
  std::uint64_t split = m.ranges()[1].start;
  // Move everything from the split upwards (hi == 0 == top) to shard 0.
  ShardMap next = m.with_delta(ShardMapDelta{m.version(), m.version() + 1, split, 0, 0});
  EXPECT_EQ(next.shard_of_hash(split), 0u);
  EXPECT_EQ(next.shard_of_hash(~std::uint64_t{0}), 0u);
  ASSERT_EQ(next.ranges().size(), 1u);  // collapsed to one full-ring range
}

TEST(ShardMap, WithDeltaRejectsStaleBaseAndUnknownShard) {
  ShardMap m = ShardMap::uniform(2);
  std::uint64_t split = m.ranges()[1].start;
  // base_version must match the map being advanced.
  EXPECT_THROW(m.with_delta(ShardMapDelta{m.version() + 1, m.version() + 2, 0, split, 1}),
               std::invalid_argument);
  // new_version must move forward.
  EXPECT_THROW(m.with_delta(ShardMapDelta{m.version(), m.version(), 0, split, 1}),
               std::invalid_argument);
  // Target shard must exist in the deployment.
  EXPECT_THROW(m.with_delta(ShardMapDelta{m.version(), m.version() + 1, 0, split, 7}),
               std::invalid_argument);
}

TEST(ShardMap, SoleOwnerOf) {
  ShardMap m = ShardMap::uniform(4);
  std::uint64_t s1 = m.ranges()[1].start;
  std::uint64_t s2 = m.ranges()[2].start;
  std::uint32_t owner = 99;
  EXPECT_TRUE(m.sole_owner_of(s1, s2, &owner));
  EXPECT_EQ(owner, 1u);
  EXPECT_TRUE(m.sole_owner_of(s1 + 1, s2 - 1, &owner));
  EXPECT_EQ(owner, 1u);
  // Straddles the s2 boundary: two owners.
  EXPECT_FALSE(m.sole_owner_of(s1, s2 + 1, &owner));
  // hi == 0 (top): only the last shard's range qualifies.
  EXPECT_TRUE(m.sole_owner_of(m.ranges()[3].start, 0, &owner));
  EXPECT_EQ(owner, 3u);
  EXPECT_FALSE(m.sole_owner_of(s1, 0, &owner));
}

}  // namespace
}  // namespace spider
