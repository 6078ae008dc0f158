#include "common/serde.hpp"

namespace spider {

void Writer::put_le(std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::bytes(BytesView v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw SerdeError("truncated input: need " + std::to_string(n) + " bytes, have " +
                     std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return buf_[pos_++];
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) throw SerdeError("invalid boolean");
  return v == 1;
}

std::uint64_t Reader::get_le(int n) {
  need(static_cast<std::size_t>(n));
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  }
  pos_ += static_cast<std::size_t>(n);
  return v;
}

Bytes Reader::bytes() { return to_bytes(bytes_view()); }

BytesView Reader::bytes_view() {
  std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  BytesView v = bytes_view();
  return std::string(v.begin(), v.end());
}

BytesView Reader::raw(std::size_t n) {
  need(n);
  BytesView v = buf_.subspan(pos_, n);
  pos_ += n;
  return v;
}

std::uint32_t Reader::count(std::size_t min_element_size) {
  std::uint32_t n = u32();
  if (static_cast<std::uint64_t>(n) * min_element_size > remaining()) {
    throw SerdeError("element count " + std::to_string(n) + " exceeds the " +
                     std::to_string(remaining()) + " bytes left");
  }
  return n;
}

void Reader::expect_done() const {
  if (!done()) throw SerdeError("trailing bytes after message");
}

}  // namespace spider
