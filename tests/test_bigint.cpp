#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/bigint.hpp"
#include "crypto/montgomery.hpp"

namespace spider {
namespace {

BigInt from_hex_str(const std::string& s) {
  std::string padded = s.size() % 2 ? "0" + s : s;
  return BigInt::from_bytes_be(from_hex(padded));
}

TEST(BigInt, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex_string(), "0");
}

TEST(BigInt, SmallValues) {
  BigInt v(0xdeadbeef);
  EXPECT_EQ(v.low_u64(), 0xdeadbeefu);
  EXPECT_EQ(v.bit_length(), 32u);
  EXPECT_EQ(v.to_hex_string(), "deadbeef");
}

TEST(BigInt, ByteRoundTrip) {
  Bytes b = from_hex("0123456789abcdef00112233445566778899aabbccddeeff");
  BigInt v = BigInt::from_bytes_be(b);
  EXPECT_EQ(to_hex(v.to_bytes_be(b.size())), to_hex(b));
}

TEST(BigInt, LeadingZerosStripped) {
  Bytes b = from_hex("000000ff");
  BigInt v = BigInt::from_bytes_be(b);
  EXPECT_EQ(v.low_u64(), 0xffu);
  EXPECT_EQ(v.bit_length(), 8u);
}

TEST(BigInt, ToBytesFixedWidthPads) {
  BigInt v(0xff);
  Bytes out = v.to_bytes_be(4);
  EXPECT_EQ(to_hex(out), "000000ff");
}

TEST(BigInt, ToBytesTooSmallThrows) {
  BigInt v(0x1ff);
  EXPECT_THROW(v.to_bytes_be(1), std::length_error);
}

TEST(BigInt, Comparisons) {
  BigInt a(5), b(7);
  EXPECT_LT(BigInt::cmp(a, b), 0);
  EXPECT_GT(BigInt::cmp(b, a), 0);
  EXPECT_EQ(BigInt::cmp(a, a), 0);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a != b);
  EXPECT_TRUE(a == BigInt(5));
}

TEST(BigInt, AddWithCarryChain) {
  // 2^128 - 1 + 1 == 2^128
  BigInt a = from_hex_str("ffffffffffffffffffffffffffffffff");
  BigInt one(1);
  BigInt sum = BigInt::add(a, one);
  EXPECT_EQ(sum.to_hex_string(), "100000000000000000000000000000000");
}

TEST(BigInt, SubWithBorrowChain) {
  BigInt a = from_hex_str("100000000000000000000000000000000");
  BigInt r = BigInt::sub(a, BigInt(1));
  EXPECT_EQ(r.to_hex_string(), "ffffffffffffffffffffffffffffffff");
}

TEST(BigInt, SubUnderflowThrows) {
  EXPECT_THROW(BigInt::sub(BigInt(1), BigInt(2)), std::domain_error);
}

TEST(BigInt, MulKnownValue) {
  // 0xffffffffffffffff * 0xffffffffffffffff = 0xfffffffffffffffe0000000000000001
  BigInt a(~std::uint64_t{0});
  BigInt p = BigInt::mul(a, a);
  EXPECT_EQ(p.to_hex_string(), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, MulByZero) {
  BigInt a(12345);
  EXPECT_TRUE(BigInt::mul(a, BigInt()).is_zero());
  EXPECT_TRUE(BigInt::mul(BigInt(), a).is_zero());
}

TEST(BigInt, ShiftLeftRightInverse) {
  BigInt v = from_hex_str("abcdef123456789");
  for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
    EXPECT_EQ(BigInt::cmp(BigInt::shr(BigInt::shl(v, s), s), v), 0) << "shift " << s;
  }
}

TEST(BigInt, ShiftRightDropsBits) {
  BigInt v(0b1011);
  EXPECT_EQ(BigInt::shr(v, 1).low_u64(), 0b101u);
  EXPECT_EQ(BigInt::shr(v, 4).low_u64(), 0u);
}

TEST(BigInt, DivModByZeroThrows) {
  EXPECT_THROW(BigInt::divmod(BigInt(1), BigInt()), std::domain_error);
}

TEST(BigInt, DivModSmall) {
  auto [q, r] = BigInt::divmod(BigInt(100), BigInt(7));
  EXPECT_EQ(q.low_u64(), 14u);
  EXPECT_EQ(r.low_u64(), 2u);
}

TEST(BigInt, DivModDividendSmaller) {
  auto [q, r] = BigInt::divmod(BigInt(3), BigInt(7));
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r.low_u64(), 3u);
}

TEST(BigInt, DivModKnownLarge) {
  BigInt a = from_hex_str("fedcba9876543210fedcba9876543210fedcba9876543210");
  BigInt b = from_hex_str("ffffffffffffffff0000000000000001");
  auto [q, r] = BigInt::divmod(a, b);
  // Verify by reconstruction: a == q*b + r and r < b.
  EXPECT_EQ(BigInt::cmp(BigInt::add(BigInt::mul(q, b), r), a), 0);
  EXPECT_TRUE(r < b);
}

// Property sweep: a = q*b + r with r < b across deterministic random sizes.
class BigIntDivSweep : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(BigIntDivSweep, QuotientRemainderInvariant) {
  auto [abits, bbits] = GetParam();
  Rng rng(abits * 1000003 + bbits);
  for (int i = 0; i < 25; ++i) {
    BigInt a = BigInt::random_bits(rng, abits);
    BigInt b = BigInt::random_bits(rng, bbits);
    if (b.is_zero()) b = BigInt(1);
    auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(BigInt::cmp(BigInt::add(BigInt::mul(q, b), r), a), 0);
    EXPECT_TRUE(r < b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BigIntDivSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{128, 64},
                      std::pair<std::size_t, std::size_t>{256, 128},
                      std::pair<std::size_t, std::size_t>{512, 256},
                      std::pair<std::size_t, std::size_t>{1024, 512},
                      std::pair<std::size_t, std::size_t>{2048, 1024},
                      std::pair<std::size_t, std::size_t>{521, 129},
                      std::pair<std::size_t, std::size_t>{1025, 1024}));

TEST(BigInt, MulModMatchesManual) {
  Rng rng(5);
  BigInt m = BigInt::random_bits(rng, 256);
  if (m.is_zero()) m = BigInt(97);
  BigInt a = BigInt::random_bits(rng, 300);
  BigInt b = BigInt::random_bits(rng, 300);
  EXPECT_EQ(BigInt::cmp(BigInt::mulmod(a, b, m), BigInt::mod(BigInt::mul(a, b), m)), 0);
}

TEST(BigInt, PowModSmallKnown) {
  // 3^10 mod 1000 = 59049 mod 1000 = 49
  EXPECT_EQ(BigInt::powmod(BigInt(3), BigInt(10), BigInt(1000)).low_u64(), 49u);
}

TEST(BigInt, PowModFermat) {
  // Fermat: a^(p-1) == 1 mod p for prime p not dividing a.
  BigInt p(1000003);
  for (std::uint64_t a : {2ULL, 3ULL, 65537ULL, 999999ULL}) {
    EXPECT_EQ(BigInt::powmod(BigInt(a), BigInt(1000002), p).low_u64(), 1u) << a;
  }
}

TEST(BigInt, PowModZeroExponent) {
  EXPECT_EQ(BigInt::powmod(BigInt(12345), BigInt(), BigInt(97)).low_u64(), 1u);
}

TEST(BigInt, PowModUnitModulusIsZero) {
  // Everything is 0 mod 1, the empty product a^0 included.
  EXPECT_TRUE(BigInt::powmod(BigInt(12345), BigInt(), BigInt(1)).is_zero());
  EXPECT_TRUE(BigInt::powmod(BigInt(), BigInt(), BigInt(1)).is_zero());
  EXPECT_TRUE(BigInt::powmod(BigInt(7), BigInt(3), BigInt(1)).is_zero());
}

// Differential check of the Montgomery kernel against square-and-multiply
// over BigInt::mulmod (schoolbook product plus Knuth division).
BigInt reference_powmod(const BigInt& a, const BigInt& e, const BigInt& m) {
  BigInt base = BigInt::mod(a, m);
  BigInt result = BigInt::mod(BigInt(1), m);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = BigInt::mulmod(result, result, m);
    if (e.bit(i)) result = BigInt::mulmod(result, base, m);
  }
  return result;
}

TEST(Montgomery, PowMatchesReference) {
  Rng rng(2026);
  std::vector<BigInt> moduli = {BigInt(1), BigInt(3), BigInt(~std::uint64_t{0}),
                                BigInt::add(BigInt::shl(BigInt(1), 192), BigInt(12345))};
  // 1-16 limbs, plus 40: too wide for the kernel's stack scratch.
  for (std::size_t limbs : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 40}) {
    BigInt m = BigInt::random_bits(rng, 64 * limbs);
    if (!m.is_odd()) m = BigInt::add(m, BigInt(1));
    moduli.push_back(m);
  }
  for (const BigInt& m : moduli) {
    const Montgomery mont(m);
    ASSERT_TRUE(mont.is_for(m));
    ASSERT_FALSE(mont.is_for(BigInt::add(m, BigInt(2))));
    std::vector<BigInt> bases = {BigInt(), BigInt(1), BigInt::sub(m, BigInt(1)),
                                 BigInt::add(m, BigInt::random_bits(rng, m.bit_length() + 70))};
    for (const BigInt& a : bases) {
      // A full 1024-bit exponent takes the widest window.
      BigInt full = BigInt::add(BigInt::shl(BigInt(1), 1023), BigInt::random_bits(rng, 1023));
      std::vector<BigInt> exps = {BigInt(), BigInt(1), BigInt(2), BigInt(65537), full};
      for (int i = 0; i < 3; ++i) exps.push_back(BigInt::random_bits(rng, 1 + rng.uniform(1024)));
      for (const BigInt& e : exps) {
        BigInt want = reference_powmod(a, e, m);
        EXPECT_EQ(mont.pow(a, e), want)
            << "m=" << m.to_hex_string() << " a=" << a.to_hex_string() << " e=" << e.to_hex_string();
        EXPECT_EQ(BigInt::powmod(a, e, m), want);
      }
    }
  }
}

TEST(Montgomery, EvenModulusThrows) {
  EXPECT_THROW(Montgomery{BigInt(1000)}, std::domain_error);
  EXPECT_THROW(Montgomery{BigInt()}, std::domain_error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).low_u64(), 12u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).low_u64(), 1u);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).low_u64(), 5u);
}

TEST(BigInt, InvModKnown) {
  // 3 * 7 = 21 == 1 mod 10
  EXPECT_EQ(BigInt::invmod(BigInt(3), BigInt(10)).low_u64(), 7u);
}

TEST(BigInt, InvModProperty) {
  Rng rng(31);
  BigInt m = BigInt::generate_prime(rng, 128);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::mod(BigInt::random_bits(rng, 200), m);
    if (a.is_zero()) continue;
    BigInt inv = BigInt::invmod(a, m);
    EXPECT_EQ(BigInt::mulmod(a, inv, m).low_u64(), 1u);
  }
}

TEST(BigInt, InvModNotInvertibleThrows) {
  EXPECT_THROW(BigInt::invmod(BigInt(4), BigInt(8)), std::domain_error);
}

TEST(BigInt, PrimalityKnownPrimes) {
  Rng rng(1);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 1000003ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigInt::is_probable_prime(BigInt(p), rng)) << p;
  }
}

TEST(BigInt, PrimalityKnownComposites) {
  Rng rng(2);
  // Includes Carmichael numbers 561, 41041.
  for (std::uint64_t c : {1ULL, 4ULL, 561ULL, 41041ULL, 65536ULL, 1000001ULL}) {
    EXPECT_FALSE(BigInt::is_probable_prime(BigInt(c), rng)) << c;
  }
}

TEST(BigInt, GeneratePrimeHasExactBitsAndIsOdd) {
  Rng rng(77);
  for (std::size_t bits : {64u, 128u, 256u}) {
    BigInt p = BigInt::generate_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(BigInt::is_probable_prime(p, rng));
  }
}

TEST(BigInt, BitAccess) {
  BigInt v(0b1010);
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(100));
}

}  // namespace
}  // namespace spider
