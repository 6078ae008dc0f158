#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "common/hex.hpp"
#include "common/serde.hpp"
#include "tests/support/wire_table.hpp"

namespace spider {
namespace {

TEST(Serde, RoundTripPrimitives) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serde, BytesRoundTrip) {
  Bytes payload = {1, 2, 3, 4, 5};
  Writer w;
  w.bytes(payload);
  w.str("hello");

  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.str(), "hello");
  r.expect_done();
}

TEST(Serde, EmptyBytes) {
  Writer w;
  w.bytes({});
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RawBytesNoPrefix) {
  Writer w;
  Bytes raw = {9, 8, 7};
  w.raw(raw);
  EXPECT_EQ(w.size(), 3u);
  Reader r(w.data());
  BytesView v = r.raw(3);
  EXPECT_TRUE(bytes_equal(v, raw));
}

TEST(Serde, TruncatedU64Throws) {
  Bytes buf = {1, 2, 3};
  Reader r(buf);
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, TruncatedBytesThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), SerdeError);
}

TEST(Serde, OversizedLengthPrefixThrows) {
  Writer w;
  w.u32(0xffffffffu);
  Reader r(w.data());
  EXPECT_THROW(r.bytes_view(), SerdeError);
}

TEST(Serde, InvalidBooleanThrows) {
  Bytes buf = {7};
  Reader r(buf);
  EXPECT_THROW(r.boolean(), SerdeError);
}

TEST(Serde, ExpectDoneDetectsTrailing) {
  Bytes buf = {1, 2};
  Reader r(buf);
  r.u8();
  EXPECT_THROW(r.expect_done(), SerdeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Serde, NestedMessages) {
  Writer inner;
  inner.u32(7);
  inner.str("nested");

  Writer outer;
  outer.u8(1);
  outer.bytes(inner.data());

  Reader r(outer.data());
  EXPECT_EQ(r.u8(), 1);
  Reader ir(r.bytes_view());
  EXPECT_EQ(ir.u32(), 7u);
  EXPECT_EQ(ir.str(), "nested");
}

TEST(Hex, RoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), b);
  EXPECT_EQ(from_hex("0001ABFF"), b);
}

TEST(Hex, Malformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Serde, SizeHintedWriterProducesIdenticalBytes) {
  // The size hint is a pure allocation optimization: wire bytes must be
  // byte-identical with and without it, and a (possibly wrong) hint must
  // never truncate.
  auto fill = [](Writer& w) {
    w.u8(7);
    w.u64(0x1122334455667788ULL);
    w.str("size-hinted");
    w.bytes(Bytes(300, 0x5a));
  };
  Writer plain;
  fill(plain);
  Writer hinted(1 + 8 + 4 + 11 + 4 + 300);
  fill(hinted);
  Writer underestimated(4);  // too small: must still grow correctly
  fill(underestimated);
  EXPECT_EQ(plain.data(), hinted.data());
  EXPECT_EQ(plain.data(), underestimated.data());
}

TEST(Serde, ReaderBytesViewIsZeroCopy) {
  Writer w;
  w.bytes(to_bytes(std::string("shared-not-copied")));
  const Bytes& wire = w.data();
  Reader r(wire);
  BytesView v = r.bytes_view();
  EXPECT_EQ(to_string(v), "shared-not-copied");
  // The view aliases the wire buffer (no copy happened).
  EXPECT_EQ(v.data(), wire.data() + 4);
}

TEST(Serde, CountAcceptsWhatFitsAndRejectsMore) {
  Writer w;
  w.u32(3);
  w.raw(Bytes(12, 0));
  Reader fits(w.data());
  EXPECT_EQ(fits.count(4), 3u);
  Reader too_many(w.data());
  EXPECT_THROW(too_many.count(5), SerdeError);
}

// ---- one sample of every message type (tests/support/wire_table.hpp) ----

// Wire bytes of each sample, captured from the hand-written encoders the
// field lists replaced: the field lists must not move a byte.
const std::map<std::string, std::string> kKnownAnswers = {
    {"irmc.Send", "0107000000000000002a000000000000000400000001020304"},
    {"irmc.SendMove", "0907000000000000002a000000000000000400000001020304"},
    {"irmc.Move", "0205000000000000001100000000000000"},
    {"irmc.Nack",
     "0703000000010000000000000005000000000000000700000000000000010000000000000000100000000000000c0"
     "0000000000000"},
    {"irmc.Windows",
     "08020000000200000000000000030000000000000009000000000000000a00000000000000"},
    {"irmc.SigShare",
     "0303000000000000000800000000000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62"
     "add1bf"},
    {"irmc.Certificate",
     "040300000000000000080000000000000003000000090909020000000000000004000000aaaaaaaa020000000300"
     "0000bbbbbb"},
    {"irmc.CertificateView",
     "040300000000000000080000000000000003000000090909020000000000000004000000aaaaaaaa020000000300"
     "0000bbbbbb"},
    {"irmc.Progress",
     "0502000000000000000000000004000000000000000b000000000000000200000000000000"},
    {"irmc.Select", "06060000000000000002000000"},
    {"spider.ClientRequest", "014d000000050000000000000003000000102030"},
    {"spider.ClientFrame",
     "14000000014d000000050000000000000003000000102030080000005c5c5c5c5c5c5c5c"},
    {"spider.RequestMsg",
     "2400000014000000014d000000050000000000000003000000102030080000005c5c5c5c5c5c5c5c03000000"},
    {"spider.ExecuteMsg", "010c00000000000000010000004d000000050000000000000001020000001020"},
    {"spider.ExecuteBatchMsg",
     "0200000020000000010c00000000000000010000004d0000000500000000000000010200000010201e00000002"
     "0d00000000000000020000004e00000009000000000000000200000000"},
    {"spider.ReplyMsg", "050000000000000002000000010201"},
    {"spider.ReconfigCmd", "010400000004030000000a0000000b0000000c000000"},
    {"spider.RegistryEntry", "020000000303000000140000001500000016000000"},
    {"spider.RegistrySnapshot",
     "030000000000000002000000020000000303000000140000001500000016000000050000000800000000"},
    {"pbft.PrePrepare",
     "010100000000000000090000000000000003000000020000000102000000000100000003"},
    {"pbft.Prepare",
     "0201000000000000000900000000000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a"
     "62add1bf02000000"},
    {"pbft.Commit",
     "0301000000000000000900000000000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a"
     "62add1bf02000000"},
    {"pbft.PreparedProof", "0900000000000000010000000000000001000000020000000405"},
    {"pbft.ViewChange",
     "04020000000000000008000000000000000300000002000000090000000000000001000000000000000100000002"
     "00000004050a00000000000000010000000000000000000000"},
    {"pbft.NewView",
     "050200000000000000080000000000000000000000010000000a00000000000000010000000000000000000000"},
    {"shard.ShardMapDelta",
     "040000000000000005000000000000006400000000000000000000000000000001000000"},
    {"shard.MigrateOutCmd",
     "f1040000000000000005000000000000006400000000000000000000000000000001000000"},
    {"shard.MigrateInCmd",
     "f2040000000000000005000000000000006400000000000000000000000000000001000000020000000707"},
    {"shard.ShardMap",
     "02000000000000000300000005000000000000000000000000000000640000000000000002000000c80000000000"
     "000000000000555555555555555501000000aaaaaaaaaaaaaaaa02000000"},
    {"checkpoint.Checkpoint",
     "011000000000000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf"},
    {"checkpoint.Fetch", "021000000000000000"},
    {"checkpoint.Proof", "020000000100000005000000111111111103000000050000003333333333"},
    {"checkpoint.State",
     "03100000000000000002000000dead1e000000020000000100000005000000111111111103000000050000003333"
     "333333"},
    {"kv.KvKeyOp", "01030000006b657903000000010203"},
    {"kv.KvMGetOp", "05020000000100000061020000006263"},
    {"kv.KvMPutOp", "060200000001000000610100000001020000006263020000000203"},
    {"kv.KvReplyMsg", "01020000000908"},
    {"kv.KvMgetReply", "0100000000000000020000000101000000010000000000"},
    {"kv.KvMputReply", "0200000000000000"},
    {"kv.KvImage", "020000000000000002000000010000007801000000010100000079020000000203"},
    {"kv.KvRange", "02000000010000006101000000010100000063020000000304"},
    {"shard.MigrateReply", "0500000000000000020000000707"},
    {"hft.UpdateStmt",
     "0301000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf"},
    {"hft.ProposalStmt",
     "04090000000000000001000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf"},
    {"hft.AcceptStmt",
     "05020000000900000000000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf"},
    {"hft.SignReq",
     "01250000000301000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf02000000"
     "1020"},
    {"hft.Partial",
     "02250000000301000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf04000000"
     "aaaaaaaa"},
    {"hft.Update",
     "03250000000301000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a62add1bf02000000"
     "1020020000000400000004000000aaaaaaaa0600000003000000bbbbbb"},
    {"hft.Proposal",
     "042d00000004090000000000000001000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a"
     "62add1bf020000001020020000000400000004000000aaaaaaaa0600000003000000bbbbbb"},
    {"hft.Accept",
     "052d00000005020000000900000000000000af2bdbe1aa9b6ec1e2ade1d694f41fc71a831d0268e9891562113d8a"
     "62add1bf020000000400000004000000aaaaaaaa0600000003000000bbbbbb"},
    {"hft.Commit", "06090000000000000002000000102001000000"},
    {"image.Exec",
     "020000004d0000000500000000000000000200000001024e00000009000000000000000100000000210000000200"
     "00000000000002000000010000007801000000010100000079020000000203"},
    {"image.ShardTail",
     "010000002800000001000000000000000200000002000000000000000000000000000000ffffffffffffff7f0100"
     "0000"},
    {"image.Agreement",
     "020000004d00000005000000000000004e000000090000000000000002000000280000000100000020000000010c"
     "00000000000000010000004d00000005000000000000000102000000102026000000010000001e000000020d0000"
     "0000000000020000004e000000090000000000000002000000002100000003000000000000000100000002000000"
     "0303000000140000001500000016000000"},
    {"image.Bft",
     "010000004d0000000500000000000000020000000102210000000200000000000000020000000100000078010000"
     "00010100000079020000000203"},
};

const wire::Sample& sample_of(const std::string& name) {
  static const std::vector<wire::Sample> all = wire::samples();
  for (const wire::Sample& s : all) {
    if (s.name == name) return s;
  }
  throw std::out_of_range(name);
}

TEST(SerdeCodec, SamplesMatchKnownAnswerBytes) {
  const std::vector<wire::Sample> all = wire::samples();
  ASSERT_EQ(all.size(), kKnownAnswers.size());
  for (const wire::Sample& s : all) {
    Bytes wire;
    if (s.type != wire::kNoType) wire.push_back(static_cast<std::uint8_t>(s.type));
    wire.insert(wire.end(), s.fields.begin(), s.fields.end());
    ASSERT_TRUE(kKnownAnswers.count(s.name)) << s.name;
    EXPECT_EQ(to_hex(wire), kKnownAnswers.at(s.name)) << s.name;
  }
}

TEST(SerdeCodec, DecodingIsCanonical) {
  // encode(decode(b)) == b for every accepted b; every strict prefix and
  // one trailing byte are rejected.
  for (const wire::Sample& s : wire::samples()) {
    EXPECT_EQ(s.reencode(s.fields), s.fields) << s.name;
    for (std::size_t len = 0; len < s.fields.size(); ++len) {
      EXPECT_THROW(s.reencode(BytesView(s.fields).first(len)), SerdeError)
          << s.name << " prefix " << len;
    }
    Bytes trailing = s.fields;
    trailing.push_back(0);
    EXPECT_THROW(s.reencode(trailing), SerdeError) << s.name << " trailing byte";
  }
}

TEST(SerdeCodec, NestedMessagesFillTheirLength) {
  // One byte of slack inside a length-prefixed nested message (the request
  // of a ClientFrame, the frame of a RequestMsg, the first Execute of a
  // batch) is rejected like a trailing byte.
  const auto pad_nested = [](BytesView head, BytesView rest) {
    Reader r(rest);
    Bytes inner = r.bytes();
    inner.push_back(0);
    Writer w;
    w.raw(head);
    w.bytes(inner);
    w.raw(r.raw(r.remaining()));
    return std::move(w).take();
  };
  for (const auto& [name, head] : {std::pair{"spider.ClientFrame", 0}, {"spider.RequestMsg", 0},
                                   {"spider.ExecuteBatchMsg", 4}}) {
    const wire::Sample& s = sample_of(name);
    const BytesView fields(s.fields);
    EXPECT_THROW(s.reencode(pad_nested(fields.first(head), fields.subspan(head))), SerdeError)
        << name;
  }
}

// ---- hostile element counts -------------------------------------------
// A u32 count of 0xFFFFFFFF followed by a few bytes, in place of a sample's
// first list count: every decoder must reject it as malformed (SerdeError)
// before reserving, instead of throwing std::bad_alloc past ComponentHost's
// SerdeError catch.

void expect_hostile_count_rejected(const std::string& name) {
  const wire::Sample& s = sample_of(name);
  ASSERT_NE(s.list_at, std::string::npos) << name;
  Writer w;
  w.raw(BytesView(s.fields).first(s.list_at));
  w.u32(0xffffffffu);
  w.u64(0);
  EXPECT_THROW(s.reencode(w.data()), SerdeError) << name;
}

TEST(SerdeHostileCount, ProgressMsg) { expect_hostile_count_rejected("irmc.Progress"); }
TEST(SerdeHostileCount, CertificateMsg) { expect_hostile_count_rejected("irmc.Certificate"); }
TEST(SerdeHostileCount, CertificateMsgView) {
  expect_hostile_count_rejected("irmc.CertificateView");
}
TEST(SerdeHostileCount, NackMsg) { expect_hostile_count_rejected("irmc.Nack"); }
TEST(SerdeHostileCount, WindowsMsg) { expect_hostile_count_rejected("irmc.Windows"); }
TEST(SerdeHostileCount, RegistrySnapshot) {
  expect_hostile_count_rejected("spider.RegistrySnapshot");
}
TEST(SerdeHostileCount, RegistryEntry) { expect_hostile_count_rejected("spider.RegistryEntry"); }
TEST(SerdeHostileCount, ReconfigCmd) { expect_hostile_count_rejected("spider.ReconfigCmd"); }
TEST(SerdeHostileCount, ExecuteBatchMsg) {
  expect_hostile_count_rejected("spider.ExecuteBatchMsg");
}
TEST(SerdeHostileCount, PrePrepareMsg) { expect_hostile_count_rejected("pbft.PrePrepare"); }
TEST(SerdeHostileCount, PreparedProof) { expect_hostile_count_rejected("pbft.PreparedProof"); }
TEST(SerdeHostileCount, ViewChangeMsg) { expect_hostile_count_rejected("pbft.ViewChange"); }
TEST(SerdeHostileCount, NewViewMsg) { expect_hostile_count_rejected("pbft.NewView"); }
TEST(SerdeHostileCount, ShardMap) { expect_hostile_count_rejected("shard.ShardMap"); }
TEST(SerdeHostileCount, CheckpointProof) { expect_hostile_count_rejected("checkpoint.Proof"); }
TEST(SerdeHostileCount, KvMGetOp) { expect_hostile_count_rejected("kv.KvMGetOp"); }
TEST(SerdeHostileCount, KvMPutOp) { expect_hostile_count_rejected("kv.KvMPutOp"); }
TEST(SerdeHostileCount, KvMgetReply) { expect_hostile_count_rejected("kv.KvMgetReply"); }
TEST(SerdeHostileCount, KvImage) { expect_hostile_count_rejected("kv.KvImage"); }
TEST(SerdeHostileCount, KvRange) { expect_hostile_count_rejected("kv.KvRange"); }
TEST(SerdeHostileCount, HftCertifiedMsg) {
  expect_hostile_count_rejected("hft.Update");
  expect_hostile_count_rejected("hft.Proposal");
}
TEST(SerdeHostileCount, HftAcceptMsg) { expect_hostile_count_rejected("hft.Accept"); }
TEST(SerdeHostileCount, ExecImage) { expect_hostile_count_rejected("image.Exec"); }
TEST(SerdeHostileCount, AgreementImage) { expect_hostile_count_rejected("image.Agreement"); }
TEST(SerdeHostileCount, BftImage) { expect_hostile_count_rejected("image.Bft"); }

// ---- map order -----------------------------------------------------------
// A map field is [count][key, value]... in its map's order; decoding accepts
// only strictly ascending keys, so an image cannot carry a key twice (the
// last copy used to win) or in another order (a second encoding).

/// `empty` encoded with two entries spliced into its empty map at `at`.
Bytes with_entries(BytesView empty, std::size_t at, BytesView first, BytesView second) {
  Writer w;
  w.raw(empty.first(at));
  w.u32(2);
  w.raw(first);
  w.raw(second);
  w.raw(empty.subspan(at + 4));
  return std::move(w).take();
}

template <class M, class K, class V>
void expect_map_order_enforced(const M& empty, std::size_t at, const std::pair<K, V>& lo,
                               const std::pair<K, V>& hi) {
  const Bytes e = codec::encode(empty);
  const Bytes a = codec::encode(lo);
  const Bytes b = codec::encode(hi);
  const Bytes sorted = with_entries(e, at, a, b);
  EXPECT_EQ(codec::encode(codec::decode<M>(sorted)), sorted);
  EXPECT_THROW(codec::decode<M>(with_entries(e, at, b, a)), SerdeError) << "unsorted";
  EXPECT_THROW(codec::decode<M>(with_entries(e, at, a, a)), SerdeError) << "duplicate";
}

TEST(SerdeCodec, MapKeysMustStrictlyAscend) {
  const Bytes app{0xde, 0xad};
  const auto kv = [](const char* k, Bytes v) { return std::pair{std::string(k), std::move(v)}; };
  expect_map_order_enforced(KvImage{2, {}}, 8, kv("x", {1}), kv("y", {2, 3}));
  expect_map_order_enforced(KvRange{}, 0, kv("a", {}), kv("b", {4}));

  using ExecEntry = ExecutionReplica::ReplyCacheEntry;
  expect_map_order_enforced(ReplicaImage<ExecEntry>{{}, app}, 0,
                            std::pair{NodeId{77}, ExecEntry{5, {1, 2}, false}},
                            std::pair{NodeId{78}, ExecEntry{9, {}, true}});
  using BftEntry = BftReplica::ReplyCacheEntry;
  expect_map_order_enforced(ReplicaImage<BftEntry>{{}, app}, 0,
                            std::pair{NodeId{3}, BftEntry{1, {7}}},
                            std::pair{NodeId{300}, BftEntry{2, {}}});
  const ExecuteMsg x{ExecuteKind::Noop, 4, 1, 77, 5, OpKind::Write, {}};
  expect_map_order_enforced(AgreementImage<>{{}, {ExecuteBatchMsg{{x}}}, RegistrySnapshot{}}, 0,
                            std::pair{NodeId{77}, std::uint64_t{5}},
                            std::pair{NodeId{78}, std::uint64_t{9}});
}

TEST(SerdeIrmc, NackAndWindowsRoundTrip) {
  const irmc::PositionList entries = {{1, 5}, {7, 1}, {4096, 12}};
  Bytes nack = codec::encode(irmc::MsgType::Nack, irmc::NackMsg{entries});
  Bytes windows = codec::encode(irmc::MsgType::Windows, irmc::WindowsMsg{entries});
  ASSERT_EQ(nack.size(), 1 + 4 + 16 * entries.size());
  EXPECT_EQ(nack[0], static_cast<std::uint8_t>(irmc::MsgType::Nack));
  EXPECT_EQ(windows[0], static_cast<std::uint8_t>(irmc::MsgType::Windows));
  // decode<> also rejects trailing bytes (the former expect_done() calls).
  EXPECT_EQ(codec::decode<irmc::NackMsg>(BytesView(nack).subspan(1)).stalled, entries);
  EXPECT_EQ(codec::decode<irmc::WindowsMsg>(BytesView(windows).subspan(1)).windows, entries);
}

TEST(SerdeIrmc, PositionListsRejectUnorderedSubchannels) {
  // A repeated subchannel would let one Nack ask for the same replays
  // twice; correct peers list each subchannel once, in ascending order.
  for (const irmc::PositionList& bad :
       {irmc::PositionList{{3, 1}, {3, 2}}, irmc::PositionList{{5, 1}, {2, 1}}}) {
    EXPECT_THROW(codec::decode<irmc::NackMsg>(codec::encode(irmc::NackMsg{bad})), SerdeError);
    EXPECT_THROW(codec::decode<irmc::WindowsMsg>(codec::encode(irmc::WindowsMsg{bad})),
                 SerdeError);
    EXPECT_THROW(codec::decode<irmc::ProgressMsg>(codec::encode(irmc::ProgressMsg{bad})),
                 SerdeError);
  }
}

TEST(SerdeIrmc, SendMoveRoundTripsThroughSendCodec) {
  const irmc::SendMsg send{7, 42, Bytes{1, 2, 3, 4}};
  const Bytes plain = codec::encode(irmc::MsgType::Send, send);
  const Bytes wire = codec::encode(irmc::MsgType::SendMove, send);
  EXPECT_EQ(plain[0], static_cast<std::uint8_t>(irmc::MsgType::Send));
  EXPECT_EQ(wire[0], static_cast<std::uint8_t>(irmc::MsgType::SendMove));
  // Same body and no extra bytes: only the type byte differs.
  EXPECT_TRUE(bytes_equal(BytesView(wire).subspan(1), BytesView(plain).subspan(1)));

  irmc::SendMsg back = codec::decode<irmc::SendMsg>(BytesView(wire).subspan(1));
  EXPECT_EQ(back.sc, send.sc);
  EXPECT_EQ(back.p, send.p);
  EXPECT_EQ(back.payload, send.payload);
  irmc::SendMsgView view = codec::decode<irmc::SendMsgView>(BytesView(wire).subspan(1));
  EXPECT_EQ(view.p, send.p);
  EXPECT_TRUE(bytes_equal(view.payload, send.payload));
}

TEST(SerdeIrmc, TruncatedSendMoveRejected) {
  const Bytes wire = codec::encode(irmc::MsgType::SendMove, irmc::SendMsg{7, 42, Bytes(16, 0xab)});
  for (std::size_t len = 1; len < wire.size(); ++len) {
    BytesView body = BytesView(wire).subspan(1, len - 1);
    EXPECT_THROW(codec::decode<irmc::SendMsg>(body), SerdeError) << "length " << len;
    EXPECT_THROW(codec::decode<irmc::SendMsgView>(body), SerdeError) << "length " << len;
  }
}

class SerdeSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SerdeSizeSweep, LargeBufferRoundTrip) {
  std::size_t n = GetParam();
  Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Writer w;
  w.bytes(payload);
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerdeSizeSweep,
                         ::testing::Values(0, 1, 63, 64, 65, 255, 256, 1024, 65536));

}  // namespace
}  // namespace spider
