#include "crypto/provider.hpp"

#include <algorithm>

#include "common/serde.hpp"
#include "crypto/hmac.hpp"

namespace spider {

// ---------------------------------------------------------------- RealCrypto

RealCrypto::RealCrypto(std::uint64_t seed, std::size_t key_bits)
    : seed_(seed), key_bits_(key_bits) {}

const RsaKeyPair& RealCrypto::keys(NodeId node) {
  auto it = keypairs_.find(node);
  if (it == keypairs_.end()) {
    // Deterministic per-node key material.
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (node + 1)));
    it = keypairs_.emplace(node, rsa_generate(rng, key_bits_)).first;
  }
  return it->second;
}

const RsaPublicKey& RealCrypto::public_key(NodeId node) { return keys(node).pub; }

Bytes RealCrypto::sign(NodeId signer, BytesView message) {
  return rsa_sign(keys(signer).priv, message);
}

bool RealCrypto::verify(NodeId signer, BytesView message, BytesView signature) {
  return rsa_verify(keys(signer).pub, message, signature);
}

Bytes RealCrypto::mac_key(NodeId a, NodeId b) const {
  Writer w;
  w.u64(seed_);
  w.u32(std::min(a, b));
  w.u32(std::max(a, b));
  return sha256(w.data());
}

const HmacKey& RealCrypto::pair_hmac(NodeId a, NodeId b) {
  std::uint64_t k = (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  auto it = pair_hmacs_.find(k);
  if (it == pair_hmacs_.end()) {
    it = pair_hmacs_.emplace(k, hmac_precompute(mac_key(a, b))).first;
  }
  return it->second;
}

Bytes RealCrypto::mac(NodeId from, NodeId to, BytesView message) {
  return hmac_tag(pair_hmac(from, to), message);
}

bool RealCrypto::verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) {
  return mac_equal(hmac_tag(pair_hmac(from, to), message), tag);
}

// ---------------------------------------------------------------- FastCrypto

FastCrypto::FastCrypto(std::uint64_t seed) {
  Writer w;
  w.str("fastcrypto-master");
  w.u64(seed);
  master_ = sha256(w.data());
}

Bytes FastCrypto::key_for(NodeId signer) const {
  Writer w;
  w.raw(master_);
  w.u32(signer);
  return sha256(w.data());
}

Bytes FastCrypto::pair_key(NodeId a, NodeId b) const {
  Writer w;
  w.raw(master_);
  w.u32(std::min(a, b));
  w.u32(std::max(a, b));
  return sha256(w.data());
}

const HmacKey& FastCrypto::signer_hmac(NodeId signer) {
  auto it = signer_hmacs_.find(signer);
  if (it == signer_hmacs_.end()) {
    it = signer_hmacs_.emplace(signer, hmac_precompute(key_for(signer))).first;
  }
  return it->second;
}

const HmacKey& FastCrypto::pair_hmac(NodeId a, NodeId b) {
  std::uint64_t k = (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  auto it = pair_hmacs_.find(k);
  if (it == pair_hmacs_.end()) {
    it = pair_hmacs_.emplace(k, hmac_precompute(pair_key(a, b))).first;
  }
  return it->second;
}

Bytes FastCrypto::sign(NodeId signer, BytesView message) {
  Sha256Digest tag = hmac_sha256(signer_hmac(signer), message);
  // Pad deterministically to the size of an RSA-1024 signature so network
  // byte accounting matches the paper's setup.
  Bytes sig(signature_size(), 0);
  std::copy(tag.begin(), tag.end(), sig.begin());
  for (std::size_t i = tag.size(); i < sig.size(); ++i) {
    sig[i] = static_cast<std::uint8_t>(0xa5 ^ (i * 31) ^ signer);
  }
  return sig;
}

bool FastCrypto::verify(NodeId signer, BytesView message, BytesView signature) {
  if (signature.size() != signature_size()) return false;
  Bytes expected = sign(signer, message);
  return bytes_equal(expected, signature);
}

Bytes FastCrypto::mac(NodeId from, NodeId to, BytesView message) {
  return hmac_tag(pair_hmac(from, to), message);
}

bool FastCrypto::verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) {
  return mac_equal(hmac_tag(pair_hmac(from, to), message), tag);
}

}  // namespace spider
