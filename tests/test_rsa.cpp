#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "crypto/provider.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace spider {
namespace {

// Shared 512-bit key pair: generated once to keep the suite fast.
const RsaKeyPair& test_keys() {
  static RsaKeyPair kp = [] {
    Rng rng(4242);
    return rsa_generate(rng, 512);
  }();
  return kp;
}

TEST(Rsa, KeyGenerationShape) {
  const RsaKeyPair& kp = test_keys();
  EXPECT_EQ(kp.pub.n.bit_length(), 512u);
  EXPECT_EQ(kp.pub.e.low_u64(), 65537u);
  EXPECT_EQ(kp.pub.modulus_bytes(), 64u);
  // n = p * q
  EXPECT_EQ(BigInt::cmp(BigInt::mul(kp.priv.p, kp.priv.q), kp.pub.n), 0);
}

TEST(Rsa, SignVerifyRoundTrip) {
  Bytes msg = to_bytes(std::string("attack at dawn"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  EXPECT_EQ(sig.size(), 64u);
  EXPECT_TRUE(rsa_verify(test_keys().pub, msg, sig));
}

TEST(Rsa, VerifyRejectsTamperedMessage) {
  Bytes msg = to_bytes(std::string("attack at dawn"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  Bytes tampered = to_bytes(std::string("attack at dusk"));
  EXPECT_FALSE(rsa_verify(test_keys().pub, tampered, sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  Bytes msg = to_bytes(std::string("m"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  sig[10] ^= 0x01;
  EXPECT_FALSE(rsa_verify(test_keys().pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongLength) {
  Bytes msg = to_bytes(std::string("m"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(test_keys().pub, msg, sig));
  sig.push_back(0);
  sig.push_back(0);
  EXPECT_FALSE(rsa_verify(test_keys().pub, msg, sig));
}

TEST(Rsa, VerifyRejectsSignatureGeModulus) {
  Bytes msg = to_bytes(std::string("m"));
  Bytes huge = test_keys().pub.n.to_bytes_be(64);  // == n, invalid
  EXPECT_FALSE(rsa_verify(test_keys().pub, msg, huge));
}

TEST(Rsa, SignatureDeterministic) {
  Bytes msg = to_bytes(std::string("deterministic"));
  EXPECT_EQ(rsa_sign(test_keys().priv, msg), rsa_sign(test_keys().priv, msg));
}

TEST(Rsa, DifferentMessagesDifferentSignatures) {
  EXPECT_NE(rsa_sign(test_keys().priv, to_bytes(std::string("a"))),
            rsa_sign(test_keys().priv, to_bytes(std::string("b"))));
}

TEST(Rsa, CrossKeyVerificationFails) {
  Rng rng(999);
  RsaKeyPair other = rsa_generate(rng, 512);
  Bytes msg = to_bytes(std::string("cross"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST(Rsa, PublicKeyEncodeDecode) {
  Bytes enc = test_keys().pub.encode();
  RsaPublicKey dec = RsaPublicKey::decode(enc);
  EXPECT_EQ(BigInt::cmp(dec.n, test_keys().pub.n), 0);
  EXPECT_EQ(BigInt::cmp(dec.e, test_keys().pub.e), 0);
}

// Public keys read from bytes: decode rejects every shape no signature can
// verify under (an even modulus also has no Montgomery form), and rsa_verify
// turns such a key down without throwing.
void expect_key_rejected(const BigInt& n, const BigInt& e) {
  Writer w;
  w.bytes(n.to_bytes_be());
  w.bytes(e.to_bytes_be());
  EXPECT_THROW(RsaPublicKey::decode(w.data()), SerdeError);
  RsaPublicKey key;
  key.n = n;
  key.e = e;
  Bytes msg = to_bytes(std::string("m"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  bool ok = true;
  EXPECT_NO_THROW(ok = rsa_verify(key, msg, sig));
  EXPECT_FALSE(ok);
  EXPECT_NO_THROW(ok = rsa_verify(key, msg, Bytes(key.modulus_bytes(), 0x01)));
  EXPECT_FALSE(ok);
}

TEST(Rsa, DecodeRejectsEvenModulus) {
  expect_key_rejected(BigInt::add(test_keys().pub.n, BigInt(1)), BigInt(65537));
}

TEST(Rsa, DecodeRejectsZeroModulus) { expect_key_rejected(BigInt(), BigInt(65537)); }

TEST(Rsa, DecodeRejectsExponentBelowThree) {
  expect_key_rejected(test_keys().pub.n, BigInt(1));
  expect_key_rejected(test_keys().pub.n, BigInt(2));
  expect_key_rejected(test_keys().pub.n, BigInt());
}

TEST(Rsa, DecodeRejectsExponentNotBelowModulus) {
  expect_key_rejected(test_keys().pub.n, test_keys().pub.n);
  expect_key_rejected(test_keys().pub.n, BigInt::add(test_keys().pub.n, BigInt(2)));
}

TEST(Rsa, VerifyRejectsExponentOneForgery) {
  // Under e = 1 the padded digest itself would pass as its own signature.
  Bytes msg = to_bytes(std::string("forged"));
  Bytes padded = rsa_sign(test_keys().priv, msg);
  padded = BigInt::powmod(BigInt::from_bytes_be(padded), test_keys().pub.e, test_keys().pub.n)
               .to_bytes_be(64);
  RsaPublicKey key;
  key.n = test_keys().pub.n;
  key.e = BigInt(1);
  EXPECT_FALSE(rsa_verify(key, msg, padded));
}

TEST(Rsa, KeysWithoutMatchingContextStillWork) {
  // Keys assembled from fields carry no Montgomery context, and a context
  // left over from another modulus must not be used.
  const RsaKeyPair& kp = test_keys();
  Bytes msg = to_bytes(std::string("fields"));
  Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_TRUE(rsa_verify(RsaPublicKey{kp.pub.n, kp.pub.e, std::nullopt}, msg, sig));
  EXPECT_TRUE(rsa_verify(RsaPublicKey::decode(kp.pub.encode()), msg, sig));

  Rng rng(999);
  RsaKeyPair other = rsa_generate(rng, 512);
  RsaPublicKey stale = other.pub;
  stale.n = kp.pub.n;
  EXPECT_TRUE(rsa_verify(stale, msg, sig));

  RsaPrivateKey bare = kp.priv;
  bare.mont_p.reset();
  bare.mont_q = other.priv.mont_q;
  EXPECT_EQ(rsa_sign(bare, msg), sig);
}

TEST(Rsa, DeterministicKeygenFromSeed) {
  Rng a(123), b(123);
  RsaKeyPair ka = rsa_generate(a, 512);
  RsaKeyPair kb = rsa_generate(b, 512);
  EXPECT_EQ(BigInt::cmp(ka.pub.n, kb.pub.n), 0);
}

TEST(Rsa, EmptyMessageSignable) {
  Bytes sig = rsa_sign(test_keys().priv, {});
  EXPECT_TRUE(rsa_verify(test_keys().pub, {}, sig));
}

TEST(Rsa, LargeMessageSignable) {
  Bytes msg(100000, 0x5a);
  Bytes sig = rsa_sign(test_keys().priv, msg);
  EXPECT_TRUE(rsa_verify(test_keys().pub, msg, sig));
  msg[50000] ^= 1;
  EXPECT_FALSE(rsa_verify(test_keys().pub, msg, sig));
}

TEST(Rsa, CrtMatchesPlainExponentiation) {
  // s == m^d mod n computed without CRT.
  Bytes msg = to_bytes(std::string("crt check"));
  Bytes sig = rsa_sign(test_keys().priv, msg);
  BigInt s = BigInt::from_bytes_be(sig);
  BigInt recovered = BigInt::powmod(s, test_keys().pub.e, test_keys().pub.n);
  // Re-signing via plain powmod of the padded block should give the same s.
  BigInt plain = BigInt::powmod(recovered, test_keys().priv.d, test_keys().priv.n);
  EXPECT_EQ(BigInt::cmp(plain, s), 0);
}

// Known answers: sha256 digests of keys, signatures and RealCrypto public
// keys as the divide-based arithmetic produced them. Keys are a function of
// the RNG stream (candidate draws, trial-division verdicts, Miller-Rabin
// witness draws), so any change to the arithmetic must reproduce them byte
// for byte; the simulated history of every RealCrypto run depends on it.

std::string key_digest(const RsaKeyPair& kp) {
  Writer w;
  for (const BigInt* v : {&kp.pub.n, &kp.pub.e, &kp.priv.d, &kp.priv.p, &kp.priv.q,
                          &kp.priv.dp, &kp.priv.dq, &kp.priv.qinv}) {
    w.bytes(v->to_bytes_be());
  }
  return to_hex(sha256(w.data()));
}

const RsaKeyPair& test_keys_1024() {
  static RsaKeyPair kp = [] {
    Rng rng(4242);
    return rsa_generate(rng, 1024);
  }();
  return kp;
}

TEST(RsaKnownAnswer, Keys512) {
  const std::pair<std::uint64_t, const char*> rows[] = {
      {4242, "8c6f7f7dd995470aea7abe9b3603d64bb09a6ceb330f4ec68a07df85d9e17dcd"},
      {123, "a75c22be9f0475f5fb3f186f48423fe800165e430bd7ac7295de1ee27889d342"},
      {999, "cb60f60d646fce5849bf450bebb9a1d77622e35118e08e62e819f44b56659f07"},
  };
  for (const auto& [seed, digest] : rows) {
    Rng rng(seed);
    EXPECT_EQ(key_digest(rsa_generate(rng, 512)), digest) << "seed " << seed;
  }
}

TEST(RsaKnownAnswer, Key1024) {
  EXPECT_EQ(key_digest(test_keys_1024()),
            "fb23d9a4e464740688ddc56abb8c40e6b382983e2959d2390a7d69c562b5d2a7");
}

TEST(RsaKnownAnswer, Signatures) {
  struct Row {
    const char* message;
    const char* sig512;
    const char* sig1024;
  };
  const Row rows[] = {
      {"", "cbca0861eb2e8ffea4fbb27e162593a52b532939c3619dd67384689cd4d3feb2",
       "59bd37e325c4e3bd71388be6cd4547e048f9674f4b57568ddcda0a9f641f0d71"},
      {"attack at dawn", "2fad5ab83d745ef9578b086587109a4b0ce3f17c6e4f9ec61d4a8cc7bc3cfae9",
       "127df94b4e35ec77128bb90b86fb223c8fa1b8b15f65ef0a273ae4e9839dd4e5"},
      {"spider", "d740af761061b516122642017aa63c4591b7bc1d052eb6ae0b996aeab9221e0b",
       "138010e0049288f0e995b550c5f20627870ced0d23c0c11fe34aae7ea38fe39b"},
  };
  for (const Row& row : rows) {
    Bytes msg = to_bytes(std::string(row.message));
    EXPECT_EQ(to_hex(sha256(rsa_sign(test_keys().priv, msg))), row.sig512) << row.message;
    EXPECT_EQ(to_hex(sha256(rsa_sign(test_keys_1024().priv, msg))), row.sig1024) << row.message;
  }
}

TEST(RsaKnownAnswer, RealCryptoPublicKeys) {
  const std::pair<NodeId, const char*> rows[] = {
      {0, "3d1330a04d4a240ade120734014d6aaf472ac3d926c4ec4529fcb5e4321cd7d5"},
      {1, "560be756634d04475121c813917f309a615f0ad282c569148e62594661b93597"},
      {2, "db498d6e88772cb158af750641690e045e3c38033a8e1e848bbe357c7980a665"},
      {3, "161dff83d6c3275b6469365a052ece71cbfd286d319c01289d02b966b841ef19"},
      {144, "4cd729d0805f2b5e7612b1da3377fc0e9100e950a6291e13e91a9cefc4ab6811"},
  };
  RealCrypto rc(1000, 512);
  for (const auto& [id, digest] : rows) {
    EXPECT_EQ(to_hex(sha256(rc.public_key(id).encode())), digest) << "node " << id;
  }
}

}  // namespace
}  // namespace spider
