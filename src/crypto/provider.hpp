// Crypto provider abstraction.
//
// Protocol components authenticate messages through this interface, so the
// same protocol code runs with
//   - `RealCrypto`: actual RSA signatures + HMAC-SHA-256 (Byzantine tests
//     genuinely reject forged messages), or
//   - `FastCrypto`: HMAC-backed simulated signatures padded to RSA size
//     (cheap enough for large-scale simulations; byte accounting matches).
//
// The *simulated CPU cost* of each operation is taken from `CryptoCosts`
// and charged by the simulation layer regardless of provider, so latency /
// throughput results do not depend on which provider is active.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"

namespace spider {

/// Modeled CPU costs (microseconds) for a t3.small-class VM running a Java
/// prototype with 1024-bit RSA, as in the paper's evaluation.
struct CryptoCosts {
  Duration sign = 210;        // RSA-1024 private-key operation
  Duration verify = 28;       // RSA-1024 public-key operation (e = 65537)
  Duration mac = 4;           // HMAC-SHA-256 generate or check
  Duration hash_per_kb = 4;   // SHA-256 throughput
  Duration proc_per_msg = 18; // fixed message handling (dispatch, alloc, ...)
  Duration proc_per_kb = 10;  // serialization / copy per KiB
};

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  virtual Bytes sign(NodeId signer, BytesView message) = 0;
  virtual bool verify(NodeId signer, BytesView message, BytesView signature) = 0;

  virtual Bytes mac(NodeId from, NodeId to, BytesView message) = 0;
  virtual bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) = 0;

  /// Size in bytes of a signature (for network accounting).
  virtual std::size_t signature_size() const = 0;
  std::size_t mac_size() const { return 16; }

  const CryptoCosts& costs() const { return costs_; }
  CryptoCosts& costs() { return costs_; }

 private:
  CryptoCosts costs_;
};

/// Real RSA + HMAC provider. Keys are generated deterministically from the
/// seed, lazily per node. `key_bits` defaults to 512: a node's key costs
/// ~1.8 ms to derive and a signature ~47 us (crypto/rsa.hpp). 1024 matches
/// the paper's signature size byte for byte at ~23 ms per key and ~410 us
/// per signature.
class RealCrypto : public CryptoProvider {
 public:
  explicit RealCrypto(std::uint64_t seed, std::size_t key_bits = 512);

  Bytes sign(NodeId signer, BytesView message) override;
  bool verify(NodeId signer, BytesView message, BytesView signature) override;
  Bytes mac(NodeId from, NodeId to, BytesView message) override;
  bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) override;
  std::size_t signature_size() const override { return key_bits_ / 8; }

  const RsaPublicKey& public_key(NodeId node);

 private:
  const RsaKeyPair& keys(NodeId node);
  Bytes mac_key(NodeId a, NodeId b) const;
  const HmacKey& pair_hmac(NodeId a, NodeId b);

  std::uint64_t seed_;
  std::size_t key_bits_;
  std::map<NodeId, RsaKeyPair> keypairs_;
  // Key material is a pure function of (seed, pair); the precomputed HMAC
  // midstates are cached so steady-state MACs skip re-deriving it.
  std::unordered_map<std::uint64_t, HmacKey> pair_hmacs_;
};

/// HMAC-backed simulated signatures. All nodes share a master secret, so
/// this provider offers no security against an in-process adversary — it
/// exists to make large simulations cheap while keeping identical message
/// sizes (128-byte "signatures" mimic RSA-1024).
class FastCrypto : public CryptoProvider {
 public:
  explicit FastCrypto(std::uint64_t seed);

  Bytes sign(NodeId signer, BytesView message) override;
  bool verify(NodeId signer, BytesView message, BytesView signature) override;
  Bytes mac(NodeId from, NodeId to, BytesView message) override;
  bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) override;
  std::size_t signature_size() const override { return 128; }

 private:
  Bytes key_for(NodeId signer) const;
  Bytes pair_key(NodeId a, NodeId b) const;
  const HmacKey& signer_hmac(NodeId signer);
  const HmacKey& pair_hmac(NodeId a, NodeId b);

  Bytes master_;
  // Derived keys are pure functions of (master, node ids): cache their
  // precomputed HMAC midstates so each sign/verify/mac pays only the
  // message-dependent hashing, not key derivation (two SHA-256 passes per
  // operation in the naive path).
  std::unordered_map<NodeId, HmacKey> signer_hmacs_;
  std::unordered_map<std::uint64_t, HmacKey> pair_hmacs_;
};

}  // namespace spider
