// Length-prefixed framing for the ordered/control TCP channel.
//
// Wire format, little-endian, one frame per protocol message:
//
//   [u32 len][u32 from][len - 4 bytes payload]
//
// `len` counts everything after the length word (sender id + payload), so
// a structurally valid frame always declares len >= 4. The decoder is the
// adversarial surface of the socket backend — it consumes bytes straight
// off a TCP stream that a Byzantine peer controls — so it is hardened to
// the same bar as ShardMap::decode: a violated bound puts the decoder in
// its failed state (the connection is then closed), buffering is capped by
// the declared maximum frame size, truncation (mid-frame close) is
// detected, and no input crashes it or triggers an unbounded allocation.
// Nothing here throws: the sender asks whether a payload fits before it
// queues it, and the receiver asks the decoder whether the stream failed.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace spider::net {

/// Upper bound on a frame's declared length (sender id + payload). Large
/// checkpoint/state-transfer messages stay comfortably below this; a
/// declared length above it is treated as a protocol violation rather
/// than an allocation request.
constexpr std::size_t kDefaultMaxFrame = 16u * 1024 * 1024;

struct Frame {
  NodeId from = 0;
  Bytes payload;
};

/// Encodes the 8-byte prologue ([len][from]) for a frame carrying
/// `payload_size` bytes; the payload itself is written separately (zero
/// copy from the refcounted Payload buffer). Returns nullopt when the
/// payload would exceed `max_frame`: no frame can carry it.
std::optional<Bytes> frame_prologue(NodeId from, std::size_t payload_size,
                                    std::size_t max_frame = kDefaultMaxFrame);

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {}

  /// Appends raw stream bytes. As soon as a declared length violates the
  /// protocol (len < 4, or len > max_frame) the decoder fails: it drops its
  /// buffer, ignores later input and yields no more frames.
  void feed(BytesView data);

  /// Pops the next complete frame, or nullopt when more bytes are needed
  /// or the stream failed.
  std::optional<Frame> next();

  /// True once a declared length violated the protocol; the caller then
  /// closes the connection. Frames decoded before the violation stand.
  [[nodiscard]] bool failed() const { return failed_; }

  /// True when the stream stopped mid-frame (bytes buffered, or a header
  /// partially read): a close now is a dirty close, surfaced by the
  /// transport as a dropped-connection error, never as a partial message.
  [[nodiscard]] bool mid_frame() const { return buf_.size() > pos_; }

  /// Bytes currently buffered (bounded by max_frame + header).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  /// Fails the stream if the length word at the front of the unconsumed
  /// bytes is complete and out of bounds.
  void check_header();

  std::size_t max_frame_;
  Bytes buf_;            // unconsumed stream bytes
  std::size_t pos_ = 0;  // consumed prefix of buf_ (compacted lazily)
  bool failed_ = false;
};

}  // namespace spider::net
