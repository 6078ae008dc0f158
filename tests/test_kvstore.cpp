#include <gtest/gtest.h>

#include "app/kvstore.hpp"
#include "common/serde.hpp"

namespace spider {
namespace {

TEST(KvStore, PutGet) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  KvReply r = kv_decode_reply(kv.execute(kv_get("k")));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(to_string(r.value), "v");
}

TEST(KvStore, GetMissing) {
  KvStore kv;
  KvReply r = kv_decode_reply(kv.execute(kv_get("nope")));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.value.empty());
}

TEST(KvStore, Overwrite) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v1"))));
  kv.execute(kv_put("k", to_bytes(std::string("v2"))));
  KvReply r = kv_decode_reply(kv.execute(kv_get("k")));
  EXPECT_EQ(to_string(r.value), "v2");
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, Delete) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  KvReply del = kv_decode_reply(kv.execute(kv_del("k")));
  EXPECT_TRUE(del.ok);
  EXPECT_FALSE(kv_decode_reply(kv.execute(kv_get("k"))).ok);
  KvReply del2 = kv_decode_reply(kv.execute(kv_del("k")));
  EXPECT_FALSE(del2.ok);  // already gone
}

TEST(KvStore, SizeOp) {
  KvStore kv;
  kv.execute(kv_put("a", {}));
  kv.execute(kv_put("b", {}));
  KvReply r = kv_decode_reply(kv.execute(kv_size()));
  Reader rd(r.value);
  EXPECT_EQ(rd.u64(), 2u);
}

TEST(KvStore, ReadonlyDoesNotMutate) {
  KvStore kv;
  Bytes put = kv_put("k", to_bytes(std::string("v")));
  KvReply r = kv_decode_reply(kv.execute_readonly(put));
  EXPECT_FALSE(r.ok);  // mutation rejected
  EXPECT_EQ(kv.size(), 0u);
}

TEST(KvStore, ReadonlyGetWorks) {
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  KvReply r = kv_decode_reply(kv.execute_readonly(kv_get("k")));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(to_string(r.value), "v");
}

TEST(KvStore, SnapshotRestoreRoundTrip) {
  KvStore a;
  a.execute(kv_put("x", to_bytes(std::string("1"))));
  a.execute(kv_put("y", to_bytes(std::string("2"))));
  Bytes snap = a.snapshot();

  KvStore b;
  b.execute(kv_put("z", to_bytes(std::string("junk"))));
  b.restore(snap);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(to_string(kv_decode_reply(b.execute(kv_get("x"))).value), "1");
  EXPECT_FALSE(kv_decode_reply(b.execute(kv_get("z"))).ok);
}

TEST(KvStore, EmptySnapshot) {
  KvStore a;
  Bytes snap = a.snapshot();
  KvStore b;
  b.execute(kv_put("k", {}));
  b.restore(snap);
  EXPECT_EQ(b.size(), 0u);
}

TEST(KvStore, DeterministicReplay) {
  // Same op sequence on two instances -> same snapshots (RSM property A.14).
  std::vector<Bytes> ops = {kv_put("a", to_bytes(std::string("1"))),
                            kv_put("b", to_bytes(std::string("2"))), kv_del("a"),
                            kv_put("b", to_bytes(std::string("3")))};
  KvStore x, y;
  for (const Bytes& op : ops) {
    Bytes rx = x.execute(op);
    Bytes ry = y.execute(op);
    EXPECT_EQ(rx, ry);
  }
  EXPECT_EQ(x.snapshot(), y.snapshot());
}

TEST(KvStore, CloneEmptyIsEmpty) {
  KvStore kv;
  kv.execute(kv_put("k", {}));
  auto fresh = kv.clone_empty();
  KvReply r = kv_decode_reply(fresh->execute(kv_get("k")));
  EXPECT_FALSE(r.ok);
}

TEST(KvStore, MputAppliesAtomicallyAndBumpsShardSeq) {
  KvStore kv;
  EXPECT_EQ(kv.shard_seq(), 0u);
  KvMputReply r = kv_decode_mput_reply(kv.execute(
      kv_mput({{"a", to_bytes(std::string("1"))}, {"b", to_bytes(std::string("2"))}})));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shard_seq, 1u);  // one ordered mutation, regardless of key count
  EXPECT_EQ(kv.shard_seq(), 1u);
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(to_string(kv_decode_reply(kv.execute(kv_get("b"))).value), "2");
}

TEST(KvStore, MputRejectedWhenReadonly) {
  KvStore kv;
  Bytes op = kv_mput({{"a", to_bytes(std::string("1"))}});
  EXPECT_FALSE(kv_decode_reply(kv.execute_readonly(op)).ok);
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.shard_seq(), 0u);
}

TEST(KvStore, MgetReturnsEntriesInRequestOrderWithShardSeq) {
  KvStore kv;
  kv.execute(kv_put("x", to_bytes(std::string("1"))));
  kv.execute(kv_put("y", to_bytes(std::string("2"))));
  KvMgetReply r = kv_decode_mget_reply(kv.execute(kv_mget({"y", "missing", "x"})));
  EXPECT_EQ(r.shard_seq, 2u);  // two puts applied before the ordered read
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_TRUE(r.entries[0].ok);
  EXPECT_EQ(to_string(r.entries[0].value), "2");
  EXPECT_FALSE(r.entries[1].ok);
  EXPECT_TRUE(r.entries[2].ok);
  EXPECT_EQ(to_string(r.entries[2].value), "1");
}

TEST(KvStore, WeakMgetOmitsShardSeqButKeepsValues) {
  // The weak fast path must produce replies that do not depend on the
  // shard-wide mutation count: replicas answering at different commit
  // positions would otherwise never match while unrelated keys churn.
  KvStore kv;
  kv.execute(kv_put("x", to_bytes(std::string("1"))));
  KvMgetReply r = kv_decode_mget_reply(kv.execute_weak(kv_mget({"x"})));
  EXPECT_EQ(r.shard_seq, 0u);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_TRUE(r.entries[0].ok);
  EXPECT_EQ(to_string(r.entries[0].value), "1");

  Bytes before = kv.execute_weak(kv_mget({"x"}));
  kv.execute(kv_put("unrelated", to_bytes(std::string("z"))));
  // Reply bytes for {"x"} are unchanged by the unrelated write, while the
  // ordered read does observe the new mutation count.
  EXPECT_EQ(kv.execute_weak(kv_mget({"x"})), before);
  EXPECT_EQ(kv_decode_mget_reply(kv.execute_readonly(kv_mget({"x"}))).shard_seq, 2u);
}

TEST(KvStore, ShardSeqSurvivesSnapshotRestore) {
  KvStore a;
  a.execute(kv_put("k", to_bytes(std::string("v"))));
  a.execute(kv_del("k"));
  EXPECT_EQ(a.shard_seq(), 2u);
  KvStore b;
  b.restore(a.snapshot());
  // Replicas adopting a checkpoint must agree on the mutation count too,
  // or read-your-writes checks would diverge after state transfer.
  EXPECT_EQ(b.shard_seq(), 2u);
}

TEST(KvStore, ParseOpRoundTrips) {
  KvParsedOp put = kv_parse_op(kv_put("k", to_bytes(std::string("v"))));
  EXPECT_EQ(put.kind, KvOp::Put);
  ASSERT_EQ(put.keys.size(), 1u);
  EXPECT_EQ(put.keys[0], "k");
  EXPECT_EQ(to_string(put.values[0]), "v");

  KvParsedOp get = kv_parse_op(kv_get("g"));
  EXPECT_EQ(get.kind, KvOp::Get);
  EXPECT_EQ(get.keys[0], "g");

  KvParsedOp size = kv_parse_op(kv_size());
  EXPECT_EQ(size.kind, KvOp::Size);
  EXPECT_TRUE(size.keys.empty());

  KvParsedOp mget = kv_parse_op(kv_mget({"a", "b"}));
  EXPECT_EQ(mget.kind, KvOp::MGet);
  EXPECT_EQ(mget.keys, (std::vector<std::string>{"a", "b"}));

  KvParsedOp mput = kv_parse_op(kv_mput({{"a", to_bytes(std::string("1"))}}));
  EXPECT_EQ(mput.kind, KvOp::MPut);
  EXPECT_EQ(mput.keys[0], "a");
  EXPECT_EQ(to_string(mput.values[0]), "1");

  EXPECT_THROW(kv_parse_op(Bytes{0x77}), SerdeError);
}

TEST(KvStore, MalformedOpThrows) {
  KvStore kv;
  Bytes garbage = {0x99};
  EXPECT_THROW(kv.execute(garbage), SerdeError);
}

/// [version][count][key, value]... in the given order, as a snapshot image
/// or (without the version) a moved range.
Bytes raw_entries(const std::vector<std::pair<std::string, std::string>>& entries,
                  bool with_version) {
  Writer w;
  if (with_version) w.u64(1);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    w.str(k);
    w.bytes(to_bytes(v));
  }
  return std::move(w).take();
}

TEST(KvStore, SnapshotAndRangeWithUnsortedOrDuplicateKeysAreRejected) {
  // Every correct replica writes keys in map order, so a snapshot or moved
  // range that lists them otherwise is malformed. Neither may change the
  // store (a repeated key used to be absorbed, the last copy winning).
  KvStore kv;
  kv.execute(kv_put("k", to_bytes(std::string("v"))));
  for (bool image : {true, false}) {
    for (const auto& bad : {raw_entries({{"b", "1"}, {"a", "2"}}, image),
                            raw_entries({{"a", "1"}, {"a", "2"}}, image)}) {
      if (image) {
        EXPECT_THROW(kv.restore(bad), SerdeError);
      } else {
        EXPECT_THROW(kv.absorb_keys(bad), SerdeError);
      }
      EXPECT_EQ(kv.size(), 1u);
      EXPECT_EQ(kv.shard_seq(), 1u);
    }
  }
  kv.absorb_keys(raw_entries({{"a", "1"}, {"b", "2"}}, false));
  EXPECT_EQ(kv.size(), 3u);
  kv.restore(raw_entries({{"a", "1"}, {"b", "2"}}, true));
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(to_string(kv_decode_reply(kv.execute(kv_get("b"))).value), "2");
}

TEST(KvStore, BinaryValues) {
  KvStore kv;
  Bytes blob(300);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::uint8_t>(i);
  kv.execute(kv_put("bin", blob));
  EXPECT_EQ(kv_decode_reply(kv.execute(kv_get("bin"))).value, blob);
}

}  // namespace
}  // namespace spider
