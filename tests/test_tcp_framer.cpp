// Adversarial decode tests for the TCP length-prefix framer — the byte
// stream it parses is controlled by a (potentially Byzantine) peer, so the
// decoder is held to the hardened-deserialization bar: a structural
// violation puts the decoder in its failed state (the transport then
// closes the connection), truncation is detected, and no input can trigger
// a crash or an allocation proportional to a declared-but-never-sent
// length.
#include <gtest/gtest.h>

#include <string>

#include "net/tcp_framer.hpp"

namespace spider::net {
namespace {

Bytes le32(std::uint32_t v) {
  return Bytes{static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
               static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
}

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// A full well-formed frame as the sender would emit it.
Bytes wire_frame(NodeId from, const std::string& payload) {
  return cat({*frame_prologue(from, payload.size()), to_bytes(payload)});
}

TEST(TcpFramer, PrologueRoundTripsThroughDecoder) {
  FrameDecoder dec;
  dec.feed(wire_frame(42, "hello world"));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->from, 42u);
  EXPECT_EQ(to_string(f->payload), "hello world");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(TcpFramer, EmptyPayloadFrameIsValid) {
  FrameDecoder dec;
  dec.feed(wire_frame(7, ""));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->from, 7u);
  EXPECT_TRUE(f->payload.empty());
}

TEST(TcpFramer, ReassemblesFramesAcrossArbitrarySegmentation) {
  // TCP gives no message boundaries: deliver three frames one byte at a
  // time and expect exactly the three original messages.
  Bytes stream = cat({wire_frame(1, "alpha"), wire_frame(2, ""), wire_frame(3, "gamma!")});
  FrameDecoder dec;
  std::vector<Frame> got;
  for (std::uint8_t b : stream) {
    dec.feed(BytesView(&b, 1));
    while (auto f = dec.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].from, 1u);
  EXPECT_EQ(to_string(got[0].payload), "alpha");
  EXPECT_EQ(got[1].from, 2u);
  EXPECT_TRUE(got[1].payload.empty());
  EXPECT_EQ(got[2].from, 3u);
  EXPECT_EQ(to_string(got[2].payload), "gamma!");
  EXPECT_FALSE(dec.mid_frame());
}

TEST(TcpFramer, CoalescedFramesDecodeInOrder) {
  FrameDecoder dec;
  dec.feed(cat({wire_frame(5, "one"), wire_frame(5, "two"), wire_frame(5, "three")}));
  EXPECT_EQ(to_string(dec.next()->payload), "one");
  EXPECT_EQ(to_string(dec.next()->payload), "two");
  EXPECT_EQ(to_string(dec.next()->payload), "three");
  EXPECT_FALSE(dec.next().has_value());
}

// ---- truncation ----------------------------------------------------------

TEST(TcpFramer, TruncatedLengthPrefixIsMidFrameNotAFrame) {
  FrameDecoder dec;
  dec.feed(BytesView(le32(100).data(), 2));  // half a length word
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.mid_frame()) << "a partial header means a dirty close";
}

TEST(TcpFramer, MidFrameDisconnectNeverYieldsAPartialMessage) {
  Bytes full = wire_frame(9, "important-payload");
  FrameDecoder dec;
  dec.feed(BytesView(full.data(), full.size() - 5));  // peer dies 5 bytes early
  EXPECT_FALSE(dec.next().has_value()) << "partial frame must never surface";
  EXPECT_TRUE(dec.mid_frame());
  // The remaining bytes arriving later (e.g. from a retransmit view of the
  // same stream) complete the frame intact.
  dec.feed(BytesView(full.data() + full.size() - 5, 5));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(to_string(f->payload), "important-payload");
}

// ---- structural violations ----------------------------------------------

TEST(TcpFramer, DeclaredLengthBelowHeaderIsRejected) {
  for (std::uint32_t len : {0u, 1u, 2u, 3u}) {
    FrameDecoder dec;
    dec.feed(cat({le32(len), le32(1)}));
    EXPECT_TRUE(dec.failed()) << "len=" << len << " cannot cover the sender id";
  }
}

TEST(TcpFramer, OversizedDeclaredLengthIsRejectedBeforeBuffering) {
  FrameDecoder dec(1024);  // small cap to make the bound observable
  // 4-byte header declaring ~4 GiB: must fail immediately, not wait for
  // (or allocate room for) a body that will never arrive.
  dec.feed(le32(0xfffffff0u));
  EXPECT_TRUE(dec.failed());
}

TEST(TcpFramer, OversizedLengthOnSecondFrameIsAlsoRejected) {
  FrameDecoder dec(1024);
  dec.feed(cat({wire_frame(1, "ok"), le32(1u << 20)}));
  EXPECT_EQ(to_string(dec.next()->payload), "ok");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed()) << "later headers get the same validation";
}

TEST(TcpFramer, GarbageStreamIsRejectedNotInterpreted) {
  // Arbitrary junk bytes: the first four decode to 0x5a5a5a5a, an absurd
  // declared length — the decoder rejects the stream on the spot instead
  // of waiting for gigabytes that will never arrive.
  FrameDecoder dec(4096);
  dec.feed(Bytes(64, 0x5a));
  EXPECT_TRUE(dec.failed());
}

TEST(TcpFramer, PendingFrameBuffersAtMostOneFrame) {
  // A peer that declares a maximum-size frame and then drips the body can
  // pin at most one frame's worth of memory, no matter how slowly it feeds.
  constexpr std::size_t kMax = 4096;
  FrameDecoder dec(kMax);
  dec.feed(le32(kMax));  // legal maximum-size declaration
  const Bytes drip(256, 0x11);
  std::size_t sent = 4;
  while (sent + drip.size() < kMax + 4) {  // stop short of completing it
    dec.feed(drip);
    sent += drip.size();
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_LE(dec.buffered(), kMax + 4u) << "buffering exceeded one frame";
  }
}

TEST(TcpFramer, SenderRefusesToBuildOversizedFrame) {
  EXPECT_FALSE(frame_prologue(1, 1024, /*max_frame=*/512).has_value());
  // At exactly the cap the frame is legal end to end.
  std::optional<Bytes> head = frame_prologue(1, 508, /*max_frame=*/512);
  ASSERT_TRUE(head.has_value());
  FrameDecoder dec(512);
  dec.feed(*head);
  dec.feed(Bytes(508, 0x11));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload.size(), 508u);
}

TEST(TcpFramer, SteadyStateMemoryIsBoundedAcrossManyFrames) {
  // A long-lived connection must not accumulate memory: after each fully
  // consumed frame the internal buffer resets.
  FrameDecoder dec;
  for (int i = 0; i < 10'000; ++i) {
    dec.feed(wire_frame(3, "steady-state-message-" + std::to_string(i)));
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

}  // namespace
}  // namespace spider::net
