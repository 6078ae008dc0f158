#include "crypto/bigint.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/montgomery.hpp"

namespace spider {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

BigInt BigInt::from_bytes_be(BytesView v) {
  BigInt out;
  std::size_t n = v.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // byte v[i] has weight 256^(n-1-i)
    std::size_t pos = n - 1 - i;
    out.limbs_[pos / 8] |= static_cast<u64>(v[i]) << (8 * (pos % 8));
  }
  out.trim();
  return out;
}

Bytes BigInt::to_bytes_be() const {
  std::size_t bits = bit_length();
  std::size_t len = bits == 0 ? 1 : (bits + 7) / 8;
  return to_bytes_be(len);
}

Bytes BigInt::to_bytes_be(std::size_t len) const {
  if (bit_length() > len * 8) throw std::length_error("BigInt does not fit requested length");
  Bytes out(len, 0);
  for (std::size_t pos = 0; pos < len; ++pos) {
    std::size_t limb = pos / 8;
    if (limb >= limbs_.size()) break;
    out[len - 1 - pos] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (pos % 8)));
  }
  return out;
}

BigInt BigInt::random_bits(Rng& rng, std::size_t bits) {
  BigInt out;
  std::size_t n = (bits + 63) / 64;
  out.limbs_.resize(n);
  for (auto& l : out.limbs_) l = rng.next();
  std::size_t top_bits = bits % 64;
  if (top_bits != 0) out.limbs_.back() &= (~u64{0}) >> (64 - top_bits);
  out.trim();
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t b = 64;
  while ((top & (u64{1} << 63)) == 0) {
    top <<= 1;
    --b;
  }
  return (limbs_.size() - 1) * 64 + b;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigInt::cmp(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::add(const BigInt& a, const BigInt& b) {
  BigInt out;
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 s = static_cast<u128>(i < a.limbs_.size() ? a.limbs_[i] : 0) +
             (i < b.limbs_.size() ? b.limbs_[i] : 0) + carry;
    out.limbs_[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigInt BigInt::sub(const BigInt& a, const BigInt& b) {
  if (cmp(a, b) < 0) throw std::domain_error("BigInt::sub underflow");
  BigInt out;
  out.limbs_.assign(a.limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u128 bi = static_cast<u128>(i < b.limbs_.size() ? b.limbs_[i] : 0) + borrow;
    if (static_cast<u128>(a.limbs_[i]) >= bi) {
      out.limbs_[i] = static_cast<u64>(static_cast<u128>(a.limbs_[i]) - bi);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<u64>((static_cast<u128>(1) << 64) + a.limbs_[i] - bi);
      borrow = 1;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::mul(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::shl(const BigInt& a, std::size_t bits) {
  if (a.is_zero()) return BigInt();
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? a.limbs_[i] : (a.limbs_[i] << bit_shift);
    if (bit_shift != 0) out.limbs_[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::shr(const BigInt& a, std::size_t bits) {
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  if (limb_shift >= a.limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift == 0 ? a.limbs_[i + limb_shift] : (a.limbs_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      out.limbs_[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& a, const BigInt& b) {
  if (b.is_zero()) throw std::domain_error("BigInt division by zero");
  if (cmp(a, b) < 0) return {BigInt(), a};
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    u64 d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigInt(static_cast<u64>(rem))};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its MSB set.
  std::size_t shift = 64 - (b.bit_length() % 64 == 0 ? 64 : b.bit_length() % 64);
  BigInt u = shl(a, shift);
  BigInt v = shl(b, shift);
  std::size_t n = v.limbs_.size();
  std::size_t m = u.limbs_.size() - n;

  std::vector<u64> un(u.limbs_);
  un.resize(u.limbs_.size() + 1, 0);  // extra limb for intermediate overflow
  const std::vector<u64>& vn = v.limbs_;

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    u128 num = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = num / vn[n - 1];
    u128 rhat = num % vn[n - 1];

    while (qhat >= (static_cast<u128>(1) << 64) ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= (static_cast<u128>(1) << 64)) break;
    }

    // Multiply-subtract: un[j..j+n] -= qhat * vn[0..n-1]
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 p = qhat * vn[i] + carry;
      carry = p >> 64;
      u128 sub = static_cast<u128>(un[i + j]) - static_cast<u64>(p) - borrow;
      un[i + j] = static_cast<u64>(sub);
      borrow = (sub >> 64) & 1;  // 1 if wrapped
    }
    u128 sub = static_cast<u128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<u64>(sub);
    bool negative = ((sub >> 64) & 1) != 0;

    if (negative) {
      // Add back: decrement qhat, add vn to un[j..j+n].
      --qhat;
      u128 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 s = static_cast<u128>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<u64>(s);
        c = s >> 64;
      }
      un[j + n] = static_cast<u64>(un[j + n] + c);
    }
    q.limbs_[j] = static_cast<u64>(qhat);
  }

  q.trim();
  BigInt r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  r = shr(r, shift);
  return {q, r};
}

BigInt BigInt::mulmod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return mod(mul(a, b), m);
}

BigInt BigInt::powmod(const BigInt& a, const BigInt& e, const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("powmod with zero modulus");
  if (m.is_odd()) return Montgomery(m).pow(a, e);
  // Even moduli have no Montgomery form: square and multiply, dividing after
  // every product. 1 < m here, so the empty product needs no reduction.
  BigInt base = mod(a, m);
  BigInt result(1);
  std::size_t bits = e.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = mulmod(result, result, m);
    if (e.bit(i)) result = mulmod(result, base, m);
  }
  return result;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = mod(a, b);
    a = b;
    b = r;
  }
  return a;
}

BigInt BigInt::invmod(const BigInt& a, const BigInt& m) {
  // Extended Euclid maintaining t coefficients with explicit signs.
  BigInt r0 = m;
  BigInt r1 = mod(a, m);
  BigInt t0;          // 0
  BigInt t1(1);       // 1
  bool t0_neg = false;
  bool t1_neg = false;

  while (!r1.is_zero()) {
    DivMod qr = divmod(r0, r1);
    // t2 = t0 - q * t1 (signed arithmetic on magnitudes)
    BigInt qt = mul(qr.quotient, t1);
    BigInt t2;
    bool t2_neg = false;
    if (t0_neg == t1_neg) {
      // t0 and q*t1 have the same sign: t2 = t0 - qt keeps/flips sign
      if (cmp(t0, qt) >= 0) {
        t2 = sub(t0, qt);
        t2_neg = t0_neg;
      } else {
        t2 = sub(qt, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = add(t0, qt);
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = qr.remainder;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }

  if (cmp(r0, BigInt(1)) != 0) throw std::domain_error("invmod: not invertible");
  if (t0_neg) return sub(m, mod(t0, m));
  return mod(t0, m);
}

namespace {
constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,  67,
    71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
    163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257,
    263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367,
    373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467};
}  // namespace

bool BigInt::is_probable_prime(const BigInt& n, Rng& rng, int rounds) {
  if (n.is_zero() || n == BigInt(1)) return false;
  if (n == BigInt(2) || n == BigInt(3)) return true;
  if (!n.is_odd()) return false;

  for (std::uint32_t p : kSmallPrimes) {
    if (n.limbs_.size() == 1 && n.limbs_[0] == p) return true;
    // n mod p, folding 32-bit halves so each step fits a u64.
    u64 r = 0;
    for (std::size_t i = n.limbs_.size(); i-- > 0;) {
      r = ((r << 32) | (n.limbs_[i] >> 32)) % p;
      r = ((r << 32) | (n.limbs_[i] & 0xffffffffu)) % p;
    }
    if (r == 0) return false;
  }

  // n - 1 = d * 2^r
  BigInt d = sub(n, BigInt(1));
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = shr(d, 1);
    ++r;
  }

  const Montgomery mont(n);
  for (int round = 0; round < rounds; ++round) {
    // Witness in [2, n-2].
    BigInt a = add(BigInt(2), mod(random_bits(rng, n.bit_length() + 8), sub(n, BigInt(3))));
    if (!mont.miller_rabin_round(a, d, r)) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(Rng& rng, std::size_t bits) {
  while (true) {
    // Random value with the top two bits forced (so a product of two such
    // primes has exactly 2*bits bits) and the low bit forced (odd).
    BigInt candidate = random_bits(rng, bits - 2);
    candidate = add(candidate, shl(BigInt(3), bits - 2));
    if (!candidate.is_odd()) candidate = add(candidate, BigInt(1));
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

std::string BigInt::to_hex_string() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      out.push_back(digits[(limbs_[i] >> (4 * nib)) & 0xf]);
    }
  }
  std::size_t first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

}  // namespace spider
