// Arbitrary-precision unsigned integers sized for RSA-512 to RSA-2048.
//
// Little-endian 64-bit limbs; schoolbook multiplication and Knuth
// Algorithm D division. Exponentiation under an odd modulus (every RSA
// modulus, prime and Miller-Rabin candidate) runs in Montgomery form
// (crypto/montgomery.hpp) and never divides; an even modulus falls back to
// square-and-multiply with a division after every product. Trial division
// of prime candidates takes word-sized remainders. Measured RSA costs are
// in crypto/rsa.hpp; simulated time never depends on them, since the
// simulation charges the modeled CryptoCosts table under either provider.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace spider {

class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(std::uint64_t v);

  /// Big-endian byte import/export (leading zeros stripped on import).
  static BigInt from_bytes_be(BytesView v);
  /// Exports exactly `len` bytes big-endian (throws if the value is larger).
  Bytes to_bytes_be(std::size_t len) const;
  Bytes to_bytes_be() const;

  static BigInt random_bits(Rng& rng, std::size_t bits);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool bit(std::size_t i) const;

  /// Three-way compare: -1, 0, +1.
  static int cmp(const BigInt& a, const BigInt& b);
  bool operator==(const BigInt& o) const { return cmp(*this, o) == 0; }
  bool operator!=(const BigInt& o) const { return cmp(*this, o) != 0; }
  bool operator<(const BigInt& o) const { return cmp(*this, o) < 0; }
  bool operator<=(const BigInt& o) const { return cmp(*this, o) <= 0; }
  bool operator>(const BigInt& o) const { return cmp(*this, o) > 0; }
  bool operator>=(const BigInt& o) const { return cmp(*this, o) >= 0; }

  static BigInt add(const BigInt& a, const BigInt& b);
  /// Requires a >= b.
  static BigInt sub(const BigInt& a, const BigInt& b);
  static BigInt mul(const BigInt& a, const BigInt& b);
  static BigInt shl(const BigInt& a, std::size_t bits);
  static BigInt shr(const BigInt& a, std::size_t bits);

  struct DivMod;
  /// Knuth Algorithm D; throws std::domain_error on division by zero.
  static DivMod divmod(const BigInt& a, const BigInt& b);
  static BigInt mod(const BigInt& a, const BigInt& m);

  /// (a * b) mod m
  static BigInt mulmod(const BigInt& a, const BigInt& b, const BigInt& m);
  /// a^e mod m: Montgomery form for odd m, square-and-multiply for even m.
  /// Throws std::domain_error for m = 0.
  static BigInt powmod(const BigInt& a, const BigInt& e, const BigInt& m);
  /// Modular inverse via extended Euclid; throws std::domain_error if gcd != 1.
  static BigInt invmod(const BigInt& a, const BigInt& m);
  static BigInt gcd(BigInt a, BigInt b);

  /// Miller-Rabin probabilistic primality test.
  static bool is_probable_prime(const BigInt& n, Rng& rng, int rounds = 16);
  /// Generates a random prime with exactly `bits` bits (top two bits set).
  static BigInt generate_prime(Rng& rng, std::size_t bits);

  [[nodiscard]] std::string to_hex_string() const;

  /// Low limb (for small values / tests).
  [[nodiscard]] std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

 private:
  friend class Montgomery;

  void trim();

  std::vector<std::uint64_t> limbs_;  // little-endian, no trailing zero limbs
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::mod(const BigInt& a, const BigInt& m) { return divmod(a, m).remainder; }

}  // namespace spider
