// Minimal binary serialization used for every protocol message.
//
// Encoding rules:
//   - fixed-width integers are little-endian
//   - byte strings / nested buffers are length-prefixed with u32
//   - containers are length-prefixed with u32
//
// `Reader` performs strict bounds checking and throws `SerdeError` on any
// malformed input, so Byzantine (garbage) messages are rejected at the
// decoding boundary instead of corrupting protocol state.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"

namespace spider {

/// Thrown by Reader on truncated or malformed input.
class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to a growing byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Pre-reserves `size_hint` bytes so message construction with a known
  /// wire size (batches, wraps, auth frames) allocates exactly once
  /// instead of growing through the doubling schedule.
  explicit Writer(std::size_t size_hint) { buf_.reserve(size_hint); }

  void reserve(std::size_t total) { buf_.reserve(total); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void bytes(BytesView v);
  /// Length-prefixed ASCII string.
  void str(const std::string& s);
  /// Raw bytes without length prefix (caller must know the length).
  void raw(BytesView v);

  [[nodiscard]] const Bytes& data() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void put_le(std::uint64_t v, int n);
  Bytes buf_;
};

/// Reads primitive values from a byte view with bounds checking.
class Reader {
 public:
  explicit Reader(BytesView v) : buf_(v) {}

  std::uint8_t u8();
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le(8)); }
  bool boolean();

  /// Length-prefixed byte string (copies out).
  Bytes bytes();
  /// Length-prefixed byte string as a view into the underlying buffer.
  BytesView bytes_view();
  /// Length-prefixed ASCII string.
  std::string str();
  /// Raw bytes without prefix.
  BytesView raw(std::size_t n);
  /// u32 element count of a container whose elements take at least
  /// `min_element_size` bytes each. Throws unless that many elements fit in
  /// the bytes left, so a hostile count can never drive a huge reserve().
  std::uint32_t count(std::size_t min_element_size);

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  /// Throws unless the whole buffer has been consumed.
  void expect_done() const;

 private:
  std::uint64_t get_le(int n);
  void need(std::size_t n) const;

  BytesView buf_;
  std::size_t pos_ = 0;
};

}  // namespace spider
