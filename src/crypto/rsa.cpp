#include "crypto/rsa.hpp"

#include <stdexcept>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace spider {

namespace {

// DER DigestInfo prefix for SHA-256 (RFC 8017, EMSA-PKCS1-v1_5).
constexpr std::uint8_t kSha256Prefix[] = {0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48,
                                          0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                                          0x20};

// DigestInfo length, and the shortest encoding that holds it: 00 01, at
// least eight 0xff bytes, 00, DigestInfo.
constexpr std::size_t kDigestInfoLen = sizeof(kSha256Prefix) + std::tuple_size_v<Sha256Digest>;
constexpr std::size_t kMinEncodedLen = kDigestInfoLen + 11;

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message) to `len` bytes.
Bytes pkcs1_encode(BytesView message, std::size_t len) {
  if (len < kMinEncodedLen) throw std::length_error("RSA modulus too small for PKCS#1 padding");
  Sha256Digest digest = Sha256::hash(message);
  std::size_t t_len = kDigestInfoLen;
  Bytes em(len, 0xff);
  em[0] = 0x00;
  em[1] = 0x01;
  em[len - t_len - 1] = 0x00;
  std::copy(std::begin(kSha256Prefix), std::end(kSha256Prefix), em.begin() + static_cast<std::ptrdiff_t>(len - t_len));
  std::copy(digest.begin(), digest.end(), em.begin() + static_cast<std::ptrdiff_t>(len - digest.size()));
  return em;
}

/// A public key some signature can verify under: n odd (so nonzero, and
/// with a Montgomery form) and 3 <= e < n.
bool well_formed(const BigInt& n, const BigInt& e) {
  return n.is_odd() && e >= BigInt(3) && e < n;
}

/// base^exp mod m through `cached` while it is m's context.
BigInt powmod(const std::optional<Montgomery>& cached, const BigInt& base, const BigInt& exp,
              const BigInt& m) {
  if (cached && cached->is_for(m)) return cached->pow(base, exp);
  return BigInt::powmod(base, exp, m);
}

}  // namespace

Bytes RsaPublicKey::encode() const {
  Writer w;
  w.bytes(n.to_bytes_be());
  w.bytes(e.to_bytes_be());
  return std::move(w).take();
}

RsaPublicKey RsaPublicKey::decode(BytesView v) {
  Reader r(v);
  RsaPublicKey key;
  key.n = BigInt::from_bytes_be(r.bytes_view());
  key.e = BigInt::from_bytes_be(r.bytes_view());
  r.expect_done();
  if (!well_formed(key.n, key.e)) throw SerdeError("RSA public key: need n odd and 3 <= e < n");
  return key;
}

RsaKeyPair rsa_generate(Rng& rng, std::size_t bits) {
  const BigInt e(65537);
  while (true) {
    BigInt p = BigInt::generate_prime(rng, bits / 2);
    BigInt q = BigInt::generate_prime(rng, bits / 2);
    if (p == q) continue;
    if (p < q) std::swap(p, q);

    BigInt n = BigInt::mul(p, q);
    if (n.bit_length() != bits) continue;

    BigInt p1 = BigInt::sub(p, BigInt(1));
    BigInt q1 = BigInt::sub(q, BigInt(1));
    BigInt phi = BigInt::mul(p1, q1);
    if (BigInt::cmp(BigInt::gcd(e, phi), BigInt(1)) != 0) continue;

    BigInt d = BigInt::invmod(e, phi);

    RsaKeyPair kp;
    kp.pub = RsaPublicKey{n, e, Montgomery(n)};
    kp.priv = RsaPrivateKey{n, d, p, q, BigInt::mod(d, p1), BigInt::mod(d, q1),
                            BigInt::invmod(q, p), Montgomery(p), Montgomery(q)};
    return kp;
  }
}

Bytes rsa_sign(const RsaPrivateKey& key, BytesView message) {
  std::size_t len = (key.n.bit_length() + 7) / 8;
  BigInt m = BigInt::from_bytes_be(pkcs1_encode(message, len));

  // CRT: m1 = m^dp mod p, m2 = m^dq mod q, h = qinv(m1-m2) mod p, s = m2 + h*q
  BigInt m1 = powmod(key.mont_p, m, key.dp, key.p);
  BigInt m2 = powmod(key.mont_q, m, key.dq, key.q);
  BigInt diff = m1 >= m2 ? BigInt::sub(m1, m2)
                         : BigInt::sub(key.p, BigInt::mod(BigInt::sub(m2, m1), key.p));
  BigInt h = BigInt::mulmod(diff, key.qinv, key.p);
  BigInt s = BigInt::add(m2, BigInt::mul(h, key.q));
  return s.to_bytes_be(len);
}

bool rsa_verify(const RsaPublicKey& key, BytesView message, BytesView signature) {
  if (!well_formed(key.n, key.e)) return false;
  std::size_t len = key.modulus_bytes();
  if (signature.size() != len || len < kMinEncodedLen) return false;
  BigInt s = BigInt::from_bytes_be(signature);
  if (s >= key.n) return false;
  BigInt m = powmod(key.mont_n, s, key.e, key.n);
  Bytes expected = pkcs1_encode(message, len);
  Bytes actual;
  try {
    actual = m.to_bytes_be(len);
  } catch (const std::length_error&) {
    return false;
  }
  return bytes_equal(actual, expected);
}

}  // namespace spider
