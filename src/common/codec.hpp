// One field list per wire message; encode, decode and size derive from it.
//
// A message lists its wire fields once, in wire order, and hands them to a
// visitor (the serialize(Archive&) idiom of Boost.Serialization and cereal):
//
//   struct MoveMsg {
//     Subchannel sc = 0;
//     Position p = 0;
//     static auto fields(auto& m, auto&& f) { return f(m.sc, m.p); }
//   };
//
// `fields` returns what the visitor returns, so one visitor can list the
// field types alone and give each message's minimum wire size at compile
// time.
//
// Field types and their encodings (serde.hpp's rules):
//   - unsigned integers: fixed width, little-endian
//   - bool: one byte, 0 or 1
//   - enums: the underlying integer, limited to the range WireEnum<E> gives
//   - std::array<std::uint8_t, N> (digests): N raw bytes
//   - Bytes, BytesView, std::string: u32 length + bytes; a BytesView decodes
//     zero-copy, as a view into the decoded buffer
//   - std::pair<A, B>: A, then B
//   - std::vector<T>, std::deque<T>: u32 count + elements
//   - std::map<K, V>: u32 count + (key, value) pairs, keys strictly
//     ascending (the map's own order, so each map has one encoding)
//   - a message: its own fields, inline
//   - nested(x): the message x, or each message of the list x, as u32
//     length + its fields
// A message type byte is not a field: encode(type, m) writes it in front,
// and receivers dispatch on it before decoding the rest.
//
// Decoding is canonical: decode<M>(b) accepts b only if encode(decode<M>(b))
// reproduces b. The message must consume all of b and every nested message
// all of its length, every list count must fit the bytes left at the
// element's minimum size (Reader::count), every enum must hold a defined
// value, bool bytes must be 0 or 1, and map keys must strictly ascend (an
// unsorted or repeated key is rejected, not merged). A message may also define
// `void validate() const`, which runs after its fields are read and throws
// SerdeError for invariants its field types cannot express. Anything else
// throws SerdeError.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.hpp"

namespace spider::codec {

/// The defined values [first, last] of an enum carried as a field:
///   template <> struct codec::WireEnum<E> {
///     static constexpr E first = ..., last = ...;
///   };
template <class E>
struct WireEnum;

/// Field-list marker for a length-prefixed message (or list of messages).
template <class T>
struct Nested {
  using Message = std::remove_const_t<T>;  // a message, or a vector of them
  T& v;
};
template <class T>
Nested<T> nested(T& v) {
  return {v};
}

/// Member holders for a type that is written from live state and decoded
/// into owned values, such as a checkpoint image: it lists its members as
/// H<T>, Image<Ref> writes a replica's own maps without copying them, and
/// Image<Own> is what decode returns.
template <class T>
using Own = T;
template <class T>
using Ref = const T&;

/// The codec's only door into a message: a message whose fields or default
/// constructor are private befriends this.
struct Access {
  template <class M, class F>
  static auto fields(M& m, F&& f) {
    return std::remove_const_t<M>::fields(m, std::forward<F>(f));
  }
  template <class M>
  static M make() {
    return M();
  }
  template <class M>
  static void validate(const M& m) {
    if constexpr (requires { m.validate(); }) m.validate();
  }
};

namespace detail {

template <class... T>
struct Types {};

/// Visitor that only names the field types, for sizes known at compile time.
struct ListTypes {
  template <class... A>
  Types<std::remove_cvref_t<A>...> operator()(A&&...) const {
    return {};
  }
};

template <class T>
using FieldTypes = decltype(Access::fields(std::declval<T&>(), ListTypes{}));

/// Lists: u32 count + elements.
template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
constexpr bool kIsVector<std::deque<T>> = true;

template <class T>
constexpr bool kIsMap = false;
template <class K, class V>
constexpr bool kIsMap<std::map<K, V>> = true;

template <class T>
constexpr bool kIsPair = false;
template <class A, class B>
constexpr bool kIsPair<std::pair<A, B>> = true;

template <class T>
constexpr bool kIsDigest = false;
template <std::size_t N>
constexpr bool kIsDigest<std::array<std::uint8_t, N>> = true;

template <class T>
constexpr bool kIsNested = false;
template <class T>
constexpr bool kIsNested<Nested<T>> = true;

template <class T>
constexpr bool kIsBytes =
    std::is_same_v<T, Bytes> || std::is_same_v<T, BytesView> || std::is_same_v<T, std::string>;

template <class T>
constexpr std::size_t min_size();

template <class... F>
constexpr std::size_t sum_min(Types<F...>) {
  return (std::size_t{0} + ... + min_size<F>());
}

/// Fewest bytes a field of type T can take on the wire.
template <class T>
constexpr std::size_t min_size() {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsDigest<T>) {
    return std::tuple_size_v<T>;
  } else if constexpr (kIsBytes<T> || kIsVector<T> || kIsMap<T>) {
    return 4;
  } else if constexpr (kIsPair<T>) {
    return min_size<typename T::first_type>() + min_size<typename T::second_type>();
  } else if constexpr (kIsNested<T>) {
    if constexpr (kIsVector<typename T::Message>) {
      return 4;
    } else {
      return 4 + min_size<typename T::Message>();
    }
  } else {
    return sum_min(FieldTypes<T>{});
  }
}

template <class T>
std::size_t size_of(const T& v) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T> || kIsDigest<T>) {
    return min_size<T>();
  } else if constexpr (kIsBytes<T>) {
    return 4 + v.size();
  } else if constexpr (kIsPair<T>) {
    return size_of(v.first) + size_of(v.second);
  } else if constexpr (kIsVector<T>) {
    std::size_t n = 4;
    for (const auto& e : v) n += size_of(e);
    return n;
  } else if constexpr (kIsMap<T>) {
    std::size_t n = 4;
    for (const auto& [key, value] : v) n += size_of(key) + size_of(value);
    return n;
  } else if constexpr (kIsNested<T>) {
    if constexpr (kIsVector<typename T::Message>) {
      std::size_t n = 4;
      for (const auto& e : v.v) n += 4 + size_of(e);
      return n;
    } else {
      return 4 + size_of(v.v);
    }
  } else {
    return Access::fields(v, [](const auto&... f) { return (std::size_t{0} + ... + size_of(f)); });
  }
}

template <class T>
void put(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(std::is_unsigned_v<T>, "wire integers are unsigned");
    if constexpr (sizeof(T) == 1) w.u8(v);
    else if constexpr (sizeof(T) == 2) w.u16(v);
    else if constexpr (sizeof(T) == 4) w.u32(v);
    else w.u64(v);
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (kIsDigest<T>) {
    w.raw(BytesView(v.data(), v.size()));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (kIsBytes<T>) {
    w.bytes(v);
  } else if constexpr (kIsPair<T>) {
    put(w, v.first);
    put(w, v.second);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) put(w, e);
  } else if constexpr (kIsMap<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& [key, value] : v) {
      put(w, key);
      put(w, value);
    }
  } else if constexpr (kIsNested<T>) {
    if constexpr (kIsVector<typename T::Message>) {
      w.u32(static_cast<std::uint32_t>(v.v.size()));
      for (const auto& e : v.v) {
        w.u32(static_cast<std::uint32_t>(size_of(e)));
        put(w, e);
      }
    } else {
      w.u32(static_cast<std::uint32_t>(size_of(v.v)));
      put(w, v.v);
    }
  } else {
    Access::fields(v, [&w](const auto&... f) { (put(w, f), ...); });
  }
}

template <class T>
void get(Reader& r, T& v);

/// Reads one length-prefixed message, which must fill its length exactly.
template <class M>
void get_nested(Reader& r, M& m) {
  Reader sub(r.bytes_view());
  get(sub, m);
  sub.expect_done();
}

template <class T>
void get(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) v = r.u8();
    else if constexpr (sizeof(T) == 2) v = r.u16();
    else if constexpr (sizeof(T) == 4) v = r.u32();
    else v = r.u64();
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    get(r, raw);
    // One unsigned comparison covers both ends of [first, last].
    const auto first = static_cast<std::uint64_t>(WireEnum<T>::first);
    if (static_cast<std::uint64_t>(raw) - first >
        static_cast<std::uint64_t>(WireEnum<T>::last) - first) {
      throw SerdeError("undefined enum value");
    }
    v = static_cast<T>(raw);
  } else if constexpr (kIsDigest<T>) {
    BytesView b = r.raw(v.size());
    std::copy(b.begin(), b.end(), v.begin());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.bytes();
  } else if constexpr (std::is_same_v<T, BytesView>) {
    v = r.bytes_view();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (kIsPair<T>) {
    get(r, v.first);
    get(r, v.second);
  } else if constexpr (kIsVector<T>) {
    const std::uint32_t n = r.count(min_size<typename T::value_type>());
    v.clear();
    if constexpr (requires { v.reserve(n); }) v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) get(r, v.emplace_back());
  } else if constexpr (kIsMap<T>) {
    using K = typename T::key_type;
    const std::uint32_t n = r.count(min_size<K>() + min_size<typename T::mapped_type>());
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      K key{};
      get(r, key);
      if (!v.empty() && !v.key_comp()(std::prev(v.end())->first, key)) {
        throw SerdeError("map keys not strictly ascending");
      }
      get(r, v.emplace_hint(v.end(), std::move(key), typename T::mapped_type{})->second);
    }
  } else if constexpr (kIsNested<T>) {
    if constexpr (kIsVector<typename T::Message>) {
      const std::uint32_t n = r.count(4 + min_size<typename T::Message::value_type>());
      v.v.clear();
      if constexpr (requires { v.v.reserve(n); }) v.v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) get_nested(r, v.v.emplace_back());
    } else {
      get_nested(r, v.v);
    }
  } else {
    Access::fields(v, [&r](auto&&... f) { (get(r, f), ...); });
    Access::validate(v);
  }
}

}  // namespace detail

/// Exact wire size of `m`'s fields (without a type byte).
template <class M>
std::size_t wire_size(const M& m) {
  return detail::size_of(m);
}

/// Appends `m`'s fields to `w` in place. Into a Writer without a size
/// hint, this walks `m` once: no wire_size pass (checkpoint images).
template <class M>
void write(Writer& w, const M& m) {
  detail::put(w, m);
}

/// Reads `m`'s fields from `r` and leaves the rest of `r` unread, for
/// buffers read in parts (an image with an optional tail). The caller
/// checks that the buffer ends where it should (Reader::expect_done).
template <class M>
void read(Reader& r, M& m) {
  detail::get(r, m);
}

/// `m`'s fields in one buffer allocated at its exact size.
template <class M>
Bytes encode(const M& m) {
  Writer w(wire_size(m));
  write(w, m);
  return std::move(w).take();
}

/// [type][fields of m], for messages whose receivers dispatch on a type byte.
template <class T, class M>
  requires(sizeof(T) == 1)
Bytes encode(T type, const M& m) {
  Writer w(1 + wire_size(m));
  w.u8(static_cast<std::uint8_t>(type));
  write(w, m);
  return std::move(w).take();
}

/// Decodes a message that must fill all of `b` (see the file comment for
/// the canonical rules). Throws SerdeError on any other input.
template <class M>
M decode(BytesView b) {
  Reader r(b);
  M m = Access::make<M>();
  detail::get(r, m);
  r.expect_done();
  return m;
}

/// decode<M>(b), or nothing where decode would throw: for callers whose
/// only answer to malformed bytes is to reject them.
template <class M>
std::optional<M> try_decode(BytesView b) {
  try {
    return decode<M>(b);
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace spider::codec
