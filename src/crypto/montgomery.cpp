#include "crypto/montgomery.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace spider {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Sliding-window width for an exponent of `bits` bits: the break-even
/// points of table cost against saved multiplies (as in OpenSSL's
/// BN_window_bits_for_exponent_size). Width 1 is plain square-and-multiply,
/// which is what e = 65537 wants.
std::size_t window_bits(std::size_t bits) {
  return bits > 671 ? 6 : bits > 239 ? 5 : bits > 79 ? 4 : bits > 23 ? 3 : 1;
}

/// Number of odd powers x, x^3, ..., x^(2^w - 1) a window of width w selects.
std::size_t table_entries(const BigInt& exp) {
  return std::size_t{1} << (window_bits(exp.bit_length()) - 1);
}

/// Limb arrays of one exponentiation. They live on the stack up to a
/// 2048-bit modulus with the widest window (out, x, 32 table entries and the
/// multiply's accumulator); a wider modulus takes one heap allocation.
/// Keeping the per-operation arrays off the heap matters beyond speed: they
/// interleave with the simulation's long-lived allocations, and on
/// failover-rsa a heap buffer per exponentiation grew the heap by ~0.5 MB.
class Scratch {
 public:
  explicit Scratch(std::size_t limbs) {
    if (limbs > stack_.size()) heap_.resize(limbs);
  }
  u64* data() { return heap_.empty() ? stack_.data() : heap_.data(); }

 private:
  std::array<u64, (2 + 32) * 32 + 32 + 2> stack_;
  std::vector<u64> heap_;
};

/// CIOS multiply over k limbs: out = a * b * R^-1 mod m, for a < R and
/// b < m; out may alias a or b. `scratch` holds k + 2 limbs. A nonzero K
/// fixes k at compile time: the limb loops unroll and the accumulator lives
/// on the stack, where no store to it can alias an operand.
template <std::size_t K>
void cios(u64* out, const u64* a, const u64* b, const u64* m, u64 m_inv, std::size_t k,
          u64* scratch) {
  if constexpr (K != 0) k = K;
  u64 fixed[K + 2];
  u64* t = K != 0 ? fixed : scratch;
  std::fill(t, t + k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    // t += a * b[i]
    const u64 bi = b[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(cur);
    t[k + 1] = static_cast<u64>(cur >> 64);
    // t = (t + q * m) / 2^64, with q chosen so the low limb cancels.
    const u64 q = t[0] * m_inv;
    cur = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<u64>(cur);
    t[k] = t[k + 1] + static_cast<u64>(cur >> 64);
  }
  // t < 2m: subtract m once unless t < m already.
  u64 borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u64 d = t[j] - m[j];
    const u64 below = t[j] < m[j] ? 1 : 0;
    out[j] = d - borrow;
    borrow = below | (d < borrow ? 1 : 0);
  }
  if (borrow > t[k]) std::copy(t, t + k, out);
}

}  // namespace

Montgomery::Montgomery(const BigInt& m) {
  if (!m.is_odd()) throw std::domain_error("Montgomery form needs an odd modulus");
  const std::size_t k = m.limbs_.size();
  // Newton's iteration for m0^-1 mod 2^64 doubles the correct low bits each
  // step; m0 itself is correct to 3 bits because m0^2 == 1 mod 8 for odd m0.
  const u64 m0 = m.limbs_[0];
  u64 inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  m_inv_ = 0 - inv;

  const BigInt r = BigInt::mod(BigInt::shl(BigInt(1), 64 * k), m);
  const BigInt r2 = BigInt::mulmod(r, r, m);
  words_.assign(3 * k, 0);
  std::copy(m.limbs_.begin(), m.limbs_.end(), words_.begin());
  std::copy(r2.limbs_.begin(), r2.limbs_.end(), words_.begin() + static_cast<std::ptrdiff_t>(k));
  std::copy(r.limbs_.begin(), r.limbs_.end(), words_.begin() + static_cast<std::ptrdiff_t>(2 * k));
}

bool Montgomery::is_for(const BigInt& m) const {
  return m.limbs_.size() == limbs() && std::equal(m.limbs_.begin(), m.limbs_.end(), mod());
}

BigInt Montgomery::modulus() const {
  BigInt m;
  m.limbs_.assign(mod(), mod() + limbs());
  return m;
}

bool Montgomery::below_modulus(const BigInt& v) const {
  const std::size_t k = limbs();
  if (v.limbs_.size() != k) return v.limbs_.size() < k;
  for (std::size_t i = k; i-- > 0;) {
    if (v.limbs_[i] != mod()[i]) return v.limbs_[i] < mod()[i];
  }
  return false;
}

void Montgomery::mul(u64* out, const u64* a, const u64* b, u64* t) const {
  // Four limbs are RSA-512's CRT halves and Miller-Rabin candidates, most of
  // RealCrypto's multiplies.
  if (limbs() == 4) {
    cios<4>(out, a, b, mod(), m_inv_, 4, t);
  } else {
    cios<0>(out, a, b, mod(), m_inv_, limbs(), t);
  }
}

void Montgomery::to_mont(u64* out, const BigInt& v, u64* t) const {
  std::fill(out, out + limbs(), 0);
  std::copy(v.limbs_.begin(), v.limbs_.end(), out);
  mul(out, out, r2(), t);
}

void Montgomery::pow_mont(u64* out, const u64* x, const BigInt& exp, u64* table, u64* t) const {
  const std::size_t k = limbs();
  const std::size_t bits = exp.bit_length();
  if (bits == 0) {
    std::copy(one(), one() + k, out);
    return;
  }
  const std::size_t w = window_bits(bits);
  // table[i] = x^(2i+1); out holds x^2 while the table is built.
  std::copy(x, x + k, table);
  if (w > 1) {
    mul(out, x, x, t);
    for (std::size_t i = 1; i < (std::size_t{1} << (w - 1)); ++i) {
      mul(table + i * k, table + (i - 1) * k, out, t);
    }
  }
  // Left to right. A window starts and ends on a set bit and spans at most
  // w bits; the top bit is set, so the first window loads its entry.
  bool first = true;
  std::size_t i = bits;
  while (i > 0) {
    if (!exp.bit(i - 1)) {
      mul(out, out, out, t);
      --i;
      continue;
    }
    std::size_t lo = i > w ? i - w : 0;
    while (!exp.bit(lo)) ++lo;
    std::size_t v = 0;
    for (std::size_t j = i; j-- > lo;) v = (v << 1) | (exp.bit(j) ? 1 : 0);
    const u64* entry = table + (v >> 1) * k;
    if (first) {
      std::copy(entry, entry + k, out);
      first = false;
    } else {
      for (std::size_t j = lo; j < i; ++j) mul(out, out, out, t);
      mul(out, out, entry, t);
    }
    i = lo;
  }
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  const std::size_t k = limbs();
  const std::size_t entries = table_entries(exp);
  // out, x, the window table, then the multiply's k+2 accumulator limbs.
  Scratch buf((2 + entries) * k + k + 2);
  u64* out = buf.data();
  u64* x = out + k;
  u64* table = x + k;
  u64* t = table + entries * k;

  BigInt reduced;
  to_mont(x, below_modulus(base) ? base : (reduced = BigInt::mod(base, modulus())), t);
  pow_mont(out, x, exp, table, t);
  // Leave Montgomery form: multiply by 1.
  std::fill(x, x + k, 0);
  x[0] = 1;
  mul(out, out, x, t);

  BigInt result;
  result.limbs_.assign(out, out + k);
  result.trim();
  return result;
}

bool Montgomery::miller_rabin_round(const BigInt& a, const BigInt& d, std::size_t r) const {
  const std::size_t k = limbs();
  const std::size_t entries = table_entries(d);
  Scratch buf((2 + entries) * k + k + 2);
  u64* x = buf.data();
  u64* minus_one = x + k;  // n - 1 in Montgomery form: m - (R mod m)
  u64* table = minus_one + k;
  u64* t = table + entries * k;

  const u64* m = mod();
  u64 borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 diff = static_cast<u128>(m[j]) - one()[j] - borrow;
    minus_one[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  auto equal = [k](const u64* p, const u64* q) { return std::equal(p, p + k, q); };

  to_mont(x, a, t);
  pow_mont(x, x, d, table, t);
  if (equal(x, one()) || equal(x, minus_one)) return true;
  for (std::size_t i = 1; i < r; ++i) {
    mul(x, x, x, t);
    if (equal(x, minus_one)) return true;
  }
  return false;
}

}  // namespace spider
