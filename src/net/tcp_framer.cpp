#include "net/tcp_framer.hpp"

#include "common/serde.hpp"

namespace spider::net {

namespace {
std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}
}  // namespace

std::optional<Bytes> frame_prologue(NodeId from, std::size_t payload_size,
                                    std::size_t max_frame) {
  if (payload_size > max_frame - 4) return std::nullopt;
  Writer w(8);
  w.u32(static_cast<std::uint32_t>(payload_size + 4));
  w.u32(from);
  return std::move(w).take();
}

void FrameDecoder::check_header() {
  if (buf_.size() - pos_ < 4) return;
  const std::uint32_t len = read_le32(buf_.data() + pos_);
  if (len >= 4 && len <= max_frame_) return;
  failed_ = true;
  Bytes().swap(buf_);  // a failed stream holds no memory
  pos_ = 0;
}

void FrameDecoder::feed(BytesView data) {
  if (failed_) return;
  // Compact the consumed prefix before growing the buffer, so steady-state
  // memory stays bounded by one frame regardless of how long the stream
  // runs.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  // Validate the declared length as soon as the header is complete — before
  // buffering any later feed — so a hostile 4-byte header can never make us
  // allocate max_frame bytes of garbage, let alone more.
  buf_.insert(buf_.end(), data.begin(), data.end());
  check_header();
}

std::optional<Frame> FrameDecoder::next() {
  // feed() validated the *first* header; frames after it are validated
  // here, when their header surfaces at the front of the buffer.
  check_header();
  if (failed_) return std::nullopt;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return std::nullopt;
  const std::uint32_t len = read_le32(buf_.data() + pos_);
  if (avail < 4u + len) return std::nullopt;

  Frame f;
  f.from = read_le32(buf_.data() + pos_ + 4);
  f.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 8),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
  pos_ += 4u + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return f;
}

}  // namespace spider::net
