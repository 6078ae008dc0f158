#include <gtest/gtest.h>

#include <functional>

#include "common/hex.hpp"
#include "common/serde.hpp"
#include "irmc/messages.hpp"
#include "spider/messages.hpp"

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

// ---- hostile element counts -------------------------------------------
// A u32 count of 0xFFFFFFFF followed by a few bytes: every decoder must
// reject it as malformed (SerdeError) before reserving, instead of throwing
// std::bad_alloc past ComponentHost's SerdeError catch.

void expect_hostile_count_rejected(const std::function<void(Writer&)>& prefix,
                                   const std::function<void(Reader&)>& decode) {
  Writer w;
  prefix(w);
  w.u32(0xffffffffu);
  w.u64(0);
  Reader r(w.data());
  EXPECT_THROW(decode(r), SerdeError);
}

void no_prefix(Writer&) {}

void certificate_prefix(Writer& w) {
  w.u64(1);  // sc
  w.u64(1);  // p
  w.bytes(Bytes(8, 0x11));
}

TEST(SerdeHostileCount, ProgressMsg) {
  expect_hostile_count_rejected(no_prefix, [](Reader& r) { irmc::ProgressMsg::decode(r); });
}

TEST(SerdeHostileCount, CertificateMsg) {
  expect_hostile_count_rejected(certificate_prefix,
                                [](Reader& r) { irmc::CertificateMsg::decode(r); });
}

TEST(SerdeHostileCount, CertificateMsgView) {
  expect_hostile_count_rejected(certificate_prefix,
                                [](Reader& r) { irmc::CertificateMsgView::decode(r); });
}

TEST(SerdeHostileCount, NackMsg) {
  expect_hostile_count_rejected(no_prefix, [](Reader& r) { irmc::NackMsg::decode(r); });
}

TEST(SerdeHostileCount, WindowsMsg) {
  expect_hostile_count_rejected(no_prefix, [](Reader& r) { irmc::WindowsMsg::decode(r); });
}

TEST(SerdeHostileCount, RegistrySnapshot) {
  expect_hostile_count_rejected([](Writer& w) { w.u64(7); },  // version
                                [](Reader& r) { RegistrySnapshot::decode(r); });
}

TEST(SerdeHostileCount, RegistryEntry) {
  expect_hostile_count_rejected(
      [](Writer& w) {
        w.u32(3);  // group
        w.u8(0);   // region
      },
      [](Reader& r) { RegistryEntry::decode(r); });
}

TEST(SerdeHostileCount, ReconfigCmd) {
  expect_hostile_count_rejected(
      [](Writer& w) {
        w.boolean(true);
        w.u32(3);  // group
        w.u8(0);   // region
      },
      [](Reader& r) { ReconfigCmd::decode(r); });
}

TEST(SerdeIrmc, NackAndWindowsRoundTrip) {
  const irmc::PositionList entries = {{1, 5}, {7, 1}, {4096, 12}};
  Bytes nack = irmc::NackMsg{entries}.encode();
  Bytes windows = irmc::WindowsMsg{entries}.encode();
  ASSERT_EQ(nack.size(), 1 + 4 + 16 * entries.size());
  EXPECT_EQ(nack[0], static_cast<std::uint8_t>(irmc::MsgType::Nack));
  EXPECT_EQ(windows[0], static_cast<std::uint8_t>(irmc::MsgType::Windows));
  Reader nr(BytesView(nack).subspan(1));
  EXPECT_EQ(irmc::NackMsg::decode(nr).stalled, entries);
  nr.expect_done();
  Reader wr(BytesView(windows).subspan(1));
  EXPECT_EQ(irmc::WindowsMsg::decode(wr).windows, entries);
  wr.expect_done();
}

TEST(SerdeIrmc, PositionListsRejectUnorderedSubchannels) {
  // A repeated subchannel would let one Nack ask for the same replays
  // twice; correct peers list each subchannel once, in ascending order.
  for (const irmc::PositionList& bad :
       {irmc::PositionList{{3, 1}, {3, 2}}, irmc::PositionList{{5, 1}, {2, 1}}}) {
    auto rejects = [](const Bytes& wire, auto decode) {
      Reader r(BytesView(wire).subspan(1));
      EXPECT_THROW(decode(r), SerdeError);
    };
    rejects(irmc::NackMsg{bad}.encode(), [](Reader& r) { irmc::NackMsg::decode(r); });
    rejects(irmc::WindowsMsg{bad}.encode(), [](Reader& r) { irmc::WindowsMsg::decode(r); });
    rejects(irmc::ProgressMsg{bad}.encode(), [](Reader& r) { irmc::ProgressMsg::decode(r); });
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
