// Modular exponentiation in Montgomery form, for one odd modulus.
//
// Montgomery (Math. Comp. 1985): with R = 2^(64k) for a k-limb modulus m,
// a residue x is held as x*R mod m, and the product of two such residues is
// reduced by adding the multiple of m that clears its low limbs and dropping
// them, so no modular multiply divides. The multiply interleaves product and
// reduction limb by limb (CIOS, Koc, Acar & Kaliski, IEEE Micro 1996) on
// stack limb arrays (up to 2048-bit moduli), so no multiply and no
// exponentiation allocates. Exponents are scanned with a sliding window
// whose width grows with the exponent's length.
//
// The context precomputes -m^-1 mod 2^64 (which exists because m is odd) and
// R^2 mod m; build it once per modulus and reuse it for every exponentiation
// under that modulus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/bigint.hpp"

namespace spider {

class Montgomery {
 public:
  /// Throws std::domain_error unless `m` is odd.
  explicit Montgomery(const BigInt& m);

  /// Whether this is the context for modulus `m`.
  [[nodiscard]] bool is_for(const BigInt& m) const;

  /// base^exp mod m. A base >= m is reduced first.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;

  /// One Miller-Rabin round for the modulus n, where n - 1 = d * 2^r (d odd)
  /// and 2 <= a <= n - 2: false when `a` proves n composite.
  [[nodiscard]] bool miller_rabin_round(const BigInt& a, const BigInt& d, std::size_t r) const;

 private:
  using u64 = std::uint64_t;

  [[nodiscard]] std::size_t limbs() const { return words_.size() / 3; }
  [[nodiscard]] const u64* mod() const { return words_.data(); }
  [[nodiscard]] const u64* r2() const { return words_.data() + limbs(); }
  [[nodiscard]] const u64* one() const { return words_.data() + 2 * limbs(); }
  [[nodiscard]] BigInt modulus() const;
  [[nodiscard]] bool below_modulus(const BigInt& v) const;

  // The limb-level operations work on caller-provided k-limb arrays; `t` is
  // the multiply's accumulator of k + 2 limbs.
  /// out = a * b * R^-1 mod m, for a < R and b < m; out may alias a or b.
  void mul(u64* out, const u64* a, const u64* b, u64* t) const;
  /// out = x^exp in Montgomery form; `table` holds the window's odd powers
  /// (table_entries(exp) arrays). out may alias x.
  void pow_mont(u64* out, const u64* x, const BigInt& exp, u64* table, u64* t) const;
  /// out = v * R mod m, for v of at most k limbs.
  void to_mont(u64* out, const BigInt& v, u64* t) const;

  u64 m_inv_ = 0;  // -m^-1 mod 2^64
  // m, R^2 mod m and R mod m (1 in Montgomery form), k limbs each, in one
  // allocation: RSA keys hold three contexts for as long as they live.
  std::vector<u64> words_;
};

}  // namespace spider
