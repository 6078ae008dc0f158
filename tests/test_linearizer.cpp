// Unit tests for the history recorder and the per-key Wing–Gong
// linearizability checker — including the cases that matter most for a
// checker: it must REJECT bad histories, not just accept good ones.
#include <gtest/gtest.h>

#include "check/linearizer.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

/// Builds histories with hand-placed timestamps by driving the World clock.
struct HistBuilder {
  World world{1};
  HistoryRecorder hist{world};

  void at(Time t) { world.run_until(t); }

  HistoryRecorder::OpId put(std::uint64_t c, const std::string& k, const std::string& v,
                            Time inv, Time resp) {
    at(inv);
    auto id = hist.invoke(c, HistOp::Put, k, to_bytes(v));
    at(resp);
    hist.respond(id, true);
    return id;
  }
  HistoryRecorder::OpId get(std::uint64_t c, const std::string& k, bool ok,
                            const std::string& v, Time inv, Time resp,
                            HistOp kind = HistOp::StrongGet) {
    at(inv);
    auto id = hist.invoke(c, kind, k);
    at(resp);
    hist.respond(id, ok, to_bytes(v));
    return id;
  }
  HistoryRecorder::OpId pending_put(std::uint64_t c, const std::string& k,
                                    const std::string& v, Time inv) {
    at(inv);
    return hist.invoke(c, HistOp::Put, k, to_bytes(v));
  }
};

TEST(Linearizer, EmptyAndTrivialHistoriesPass) {
  HistBuilder b;
  EXPECT_TRUE(check_kv_history(b.hist).ok);
  b.put(1, "x", "a", 10, 20);
  b.get(1, "x", true, "a", 30, 40);
  EXPECT_TRUE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, MissBeforeFirstWritePasses) {
  HistBuilder b;
  b.get(1, "x", false, "", 0, 5);
  b.put(1, "x", "a", 10, 20);
  EXPECT_TRUE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, StaleStrongReadRejected) {
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);
  b.put(1, "x", "b", 30, 40);
  // Strictly after the second write completed, a strong read must see "b".
  b.get(2, "x", true, "a", 50, 60);
  LinResult r = check_kv_history(b.hist);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("key \"x\""), std::string::npos);
}

TEST(Linearizer, FabricatedValueRejected) {
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);
  b.get(2, "x", true, "never-written", 30, 40);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, LostAcknowledgedWriteRejected) {
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);  // acked
  b.get(2, "x", false, "", 30, 40);  // read misses it: write lost
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, ConcurrentWritesAllowEitherOrder) {
  HistBuilder b;
  // Two overlapping writes; a later read may see either one (but the
  // read's own order constraints still apply).
  b.world.run_until(10);
  auto w1 = b.hist.invoke(1, HistOp::Put, "x", to_bytes(std::string("a")));
  b.world.run_until(12);
  auto w2 = b.hist.invoke(2, HistOp::Put, "x", to_bytes(std::string("b")));
  b.world.run_until(30);
  b.hist.respond(w1, true);
  b.hist.respond(w2, true);
  b.get(3, "x", true, "a", 40, 50);
  EXPECT_TRUE(check_kv_history(b.hist).ok);

  HistBuilder b2;
  b2.world.run_until(10);
  auto v1 = b2.hist.invoke(1, HistOp::Put, "x", to_bytes(std::string("a")));
  b2.world.run_until(12);
  auto v2 = b2.hist.invoke(2, HistOp::Put, "x", to_bytes(std::string("b")));
  b2.world.run_until(30);
  b2.hist.respond(v1, true);
  b2.hist.respond(v2, true);
  b2.get(3, "x", true, "b", 40, 50);
  EXPECT_TRUE(check_kv_history(b2.hist).ok);
}

TEST(Linearizer, ReadsOnBothSidesPinConcurrentWriteOrder) {
  // w(a) and w(b) concurrent; read1 sees "b" then read2 (after read1) sees
  // "a" — no single order explains both.
  HistBuilder b;
  b.world.run_until(10);
  auto w1 = b.hist.invoke(1, HistOp::Put, "x", to_bytes(std::string("a")));
  auto w2 = b.hist.invoke(2, HistOp::Put, "x", to_bytes(std::string("b")));
  b.world.run_until(30);
  b.hist.respond(w1, true);
  b.hist.respond(w2, true);
  b.get(3, "x", true, "b", 40, 50);
  b.get(3, "x", true, "a", 60, 70);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, PendingWriteMayOrMayNotTakeEffect) {
  {
    HistBuilder b;
    b.put(1, "x", "a", 10, 20);
    b.pending_put(2, "x", "crashed", 30);     // never acked
    b.get(3, "x", true, "crashed", 40, 50);   // took effect: fine
    EXPECT_TRUE(check_kv_history(b.hist).ok);
  }
  {
    HistBuilder b;
    b.put(1, "x", "a", 10, 20);
    b.pending_put(2, "x", "crashed", 30);
    b.get(3, "x", true, "a", 40, 50);  // never took effect: also fine
    EXPECT_TRUE(check_kv_history(b.hist).ok);
  }
  {
    HistBuilder b;
    b.put(1, "x", "a", 10, 20);
    auto p = b.pending_put(2, "x", "crashed", 30);
    (void)p;
    // Seen, then unseen by a later read: the pending write cannot both
    // take effect and not take effect.
    b.get(3, "x", true, "crashed", 40, 50);
    b.get(3, "x", true, "a", 60, 70);
    EXPECT_FALSE(check_kv_history(b.hist).ok);
  }
}

TEST(Linearizer, DeleteMakesKeyMissing) {
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);
  b.at(30);
  auto d = b.hist.invoke(1, HistOp::Del, "x");
  b.at(40);
  b.hist.respond(d, true);
  b.get(2, "x", false, "", 50, 60);
  EXPECT_TRUE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, WeakReadMayBeArbitrarilyStaleButNotFabricated) {
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);
  b.put(1, "x", "b", 30, 40);
  b.put(1, "x", "c", 50, 60);
  // Weak read long after "c" may still return "a" (stale prefix) or miss
  // entirely (a recovering replica that has not caught up).
  b.get(2, "x", true, "a", 70, 80, HistOp::WeakGet);
  b.get(2, "x", false, "", 90, 95, HistOp::WeakGet);
  EXPECT_TRUE(check_kv_history(b.hist).ok);

  // But a value never written to the key is a violation.
  b.get(2, "x", true, "zz", 100, 110, HistOp::WeakGet);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, WeakReadFromTheFutureRejected) {
  HistBuilder b;
  // The weak read completes before the write is even invoked.
  b.get(2, "x", true, "later", 10, 20, HistOp::WeakGet);
  b.put(1, "x", "later", 30, 40);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, PerKeyComposition) {
  // Violation on one key is found even with clean histories on others.
  HistBuilder b;
  b.put(1, "good", "g", 10, 20);
  b.get(2, "good", true, "g", 30, 40);
  b.put(1, "bad", "v1", 50, 60);
  b.get(2, "bad", true, "other", 70, 80);
  LinResult r = check_kv_history(b.hist);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("key \"bad\""), std::string::npos);
}

TEST(Linearizer, SerializeIsDeterministic) {
  auto build = [] {
    HistBuilder b;
    b.put(1, "x", "a", 10, 20);
    b.get(2, "x", true, "a", 30, 40);
    return b.hist.serialize();
  };
  EXPECT_EQ(build(), build());
  EXPECT_FALSE(build().empty());
}

// ---------------------------------------------------------------------------
// Negative paths a Byzantine replica could produce. The chaos suite's
// Byzantine sweep only proves something if these histories are REJECTED.
// ---------------------------------------------------------------------------

TEST(Linearizer, CorruptedReplyByteRejected) {
  // Byzantine value tampering at the byte level (the corrupt_replies test
  // hook flips the last payload byte): the read returns the written value
  // with one byte off — never written, must be flagged.
  HistBuilder b;
  b.put(1, "x", "honest", 10, 20);
  Bytes tampered = to_bytes(std::string("honest"));
  tampered.back() ^= 0xbd;
  b.at(30);
  auto id = b.hist.invoke(2, HistOp::StrongGet, "x");
  b.at(40);
  b.hist.respond(id, true, tampered);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, CorruptedWeakReplyRejected) {
  // The committed-prefix rule tolerates arbitrary staleness but not
  // tampering: a weak read returning a corrupted byte string is flagged.
  HistBuilder b;
  b.put(1, "x", "honest", 10, 20);
  Bytes tampered = to_bytes(std::string("honest"));
  tampered.back() ^= 0xbd;
  b.at(30);
  auto id = b.hist.invoke(2, HistOp::WeakGet, "x");
  b.at(40);
  b.hist.respond(id, true, tampered);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, CommittedWriteLostAfterBeingObservedRejected) {
  // The write was committed AND observed, then vanishes (e.g. a replica
  // group rebuilt from a tampered state): seen-then-lost has no
  // linearization.
  HistBuilder b;
  b.put(1, "x", "w1", 10, 20);
  b.get(2, "x", true, "w1", 30, 40);
  b.get(2, "x", false, "", 50, 60);  // the key vanished: committed write lost
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

TEST(Linearizer, WeakReadBeyondCommittedPrefixRejected) {
  // The weak read completes before the write it claims to observe was
  // even invoked: no prefix of any witness order can contain that write,
  // so "stale" cannot explain it.
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);
  b.get(2, "x", true, "b", 30, 40, HistOp::WeakGet);
  b.put(1, "x", "b", 50, 60);
  EXPECT_FALSE(check_kv_history(b.hist).ok);
}

// ---------------------------------------------------------------------------
// Text round trip (chaos failure artifacts embed this encoding).
// ---------------------------------------------------------------------------

TEST(Linearizer, HistoryTextRoundTripsByteIdentically) {
  HistBuilder b;
  b.put(1, "x", "a", 10, 20);
  b.get(2, "x", true, "a", 30, 40);
  b.get(3, "x", false, "", 50, 55, HistOp::WeakGet);
  b.pending_put(4, "y", "never-acked", 60);
  Bytes binary_value = {0x00, 0xff, 0x20, 0x0a};  // NUL, space, newline
  b.at(70);
  auto id = b.hist.invoke(5, HistOp::Put, "y", binary_value);
  b.at(80);
  b.hist.respond(id, true);

  std::string text = b.hist.serialize_text();
  std::vector<RecordedOp> ops = parse_history_text(text);
  EXPECT_EQ(serialize_ops(ops), b.hist.serialize());
  EXPECT_EQ(serialize_ops_text(ops), text);
  EXPECT_EQ(ops.size(), b.hist.ops().size());
}

TEST(Linearizer, MalformedHistoryTextThrows) {
  EXPECT_THROW(parse_history_text("op 1 notanumber"), std::invalid_argument);
  EXPECT_THROW(parse_history_text("nop 1 1 - - 0 0 0 0 -"), std::invalid_argument);
  // Lines serialize_ops_text never writes.
  for (const char* line : {
           "op 1 9 6b - 0 5 1 1 -",         // kind 9 names no HistOp
           "op 1 0 6b - 0 5 1 1 -",         // kind 0
           "op 1 1 6b - 0 5 7 1 -",         // responded is 7
           "op 1 1 6b - 0 5 1 2 -",         // ok is 2
           "op 1 1 6b - 0 5 1 1 - 3 junk",  // a token after the shard
           "op 1 1 6b - 0 5 1 1 - junk",    // a non-numeric shard
           "op 1 1 6b - 0 5 1 1 - -3",      // a negative shard
       }) {
    EXPECT_THROW(parse_history_text(line), std::invalid_argument) << line;
  }
  // The same line with a numeric shard, and without one, parses.
  EXPECT_EQ(parse_history_text("op 1 1 6b - 0 5 1 1 - 3").at(0).shard, 3u);
  EXPECT_EQ(parse_history_text("op 1 1 6b - 0 5 1 1 -").at(0).shard, kShardUnattributed);
}

}  // namespace
}  // namespace spider
