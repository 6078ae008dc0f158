// Verify-counting crypto provider for tests that pin how much signature
// verification a protocol path performs. Every operation is delegated to a
// FastCrypto with the same seed (so signatures match a default World's);
// each verify() call additionally logs the message it was asked to check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "crypto/provider.hpp"

namespace spider {

class CountingCrypto : public CryptoProvider {
 public:
  explicit CountingCrypto(std::uint64_t seed) : inner_(seed) {}

  Bytes sign(NodeId signer, BytesView message) override { return inner_.sign(signer, message); }
  bool verify(NodeId signer, BytesView message, BytesView signature) override {
    verified_.push_back(to_bytes(message));
    return inner_.verify(signer, message, signature);
  }
  Bytes mac(NodeId from, NodeId to, BytesView message) override {
    return inner_.mac(from, to, message);
  }
  bool verify_mac(NodeId from, NodeId to, BytesView message, BytesView tag) override {
    return inner_.verify_mac(from, to, message, tag);
  }
  std::size_t signature_size() const override { return inner_.signature_size(); }

  /// Number of verify() calls made so far over exactly `message`.
  [[nodiscard]] std::size_t verifies_of(BytesView message) const {
    return static_cast<std::size_t>(std::count_if(
        verified_.begin(), verified_.end(), [&](const Bytes& m) { return bytes_equal(m, message); }));
  }

 private:
  FastCrypto inner_;
  std::vector<Bytes> verified_;
};

}  // namespace spider
