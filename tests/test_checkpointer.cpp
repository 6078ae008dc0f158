#include <gtest/gtest.h>

#include <set>

#include "sim/world.hpp"
#include "spider/checkpointer.hpp"
#include "tests/support/counting_crypto.hpp"

namespace spider {
namespace {

/// Group of 3 hosts (f=1) each with a checkpoint component. The trusted
/// set is shared and extensible, mirroring how the real replicas register
/// members of newly added groups (add_checkpoint_peers).
struct CkptFixture {
  World world{1};
  std::vector<std::unique_ptr<ComponentHost>> hosts;
  std::vector<std::unique_ptr<Checkpointer>> cps;
  std::vector<std::vector<std::pair<SeqNr, Bytes>>> stable;
  std::shared_ptr<std::set<NodeId>> trusted = std::make_shared<std::set<NodeId>>();

  explicit CkptFixture(std::uint32_t n = 3, std::uint32_t f = 1,
                       std::unique_ptr<CryptoProvider> crypto = nullptr)
      : world(1, std::move(crypto)) {
    std::vector<NodeId> ids;
    for (std::uint32_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<ComponentHost>(
          world, world.allocate_id(), Site{Region::Virginia, static_cast<std::uint8_t>(i % 3)}));
      ids.push_back(hosts.back()->id());
      trusted->insert(hosts.back()->id());
    }
    stable.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::size_t idx = i;
      cps.push_back(std::make_unique<Checkpointer>(
          *hosts[i], tags::kCheckpoint, ids, f,
          [this, idx](SeqNr s, BytesView state) {
            stable[idx].emplace_back(s, to_bytes(state));
          },
          [t = trusted](NodeId id) { return t->count(id) > 0; }));
    }
  }

  static Bytes state(int v) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(v));
    w.str("checkpoint-state");
    return std::move(w).take();
  }

  /// The domain-separated bytes a replica signs to vote for `st` at `s`.
  static Bytes checkpoint_auth(SeqNr s, const Bytes& st) {
    Sha256Digest h = Sha256::hash(st);
    Writer w;
    w.u32(tags::kCheckpoint);
    w.u8(1);  // Checkpoint type
    w.u64(s);
    w.raw(BytesView(h.data(), h.size()));
    return std::move(w).take();
  }

  /// A State reply carrying `st` at `s` with the encoded signature `proof`.
  static Bytes state_frame(SeqNr s, const Bytes& st, BytesView proof) {
    Writer w;
    w.u32(tags::kCheckpoint);
    w.u8(3);  // State type
    w.u64(s);
    w.bytes(st);
    w.bytes(proof);
    return std::move(w).take();
  }
};

TEST(Checkpointer, StableAfterFPlusOneMatching) {
  CkptFixture f;
  Bytes st = CkptFixture::state(1);
  f.cps[0]->gen_cp(10, st);
  f.cps[1]->gen_cp(10, st);  // f+1 = 2 matching
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[0].size(), 1u);
  EXPECT_EQ(f.stable[0][0].first, 10u);
  EXPECT_EQ(f.stable[0][0].second, st);
  // The third replica also created nothing itself but observes 2 matching
  // checkpoint messages and pulls the state (CP-Liveness).
  ASSERT_EQ(f.stable[2].size(), 1u);
  EXPECT_EQ(f.stable[2][0].second, st);
}

TEST(Checkpointer, SingleReplicaCheckpointNotStable) {
  CkptFixture f;
  f.cps[0]->gen_cp(10, CkptFixture::state(1));
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());  // CP-Safety: need f+1
}

TEST(Checkpointer, MismatchedStatesDoNotCombine) {
  CkptFixture f;
  f.cps[0]->gen_cp(10, CkptFixture::state(1));
  f.cps[1]->gen_cp(10, CkptFixture::state(2));  // diverging snapshot
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
  // A third matching vote resolves it.
  f.cps[2]->gen_cp(10, CkptFixture::state(1));
  f.world.run_for(kSecond);
  EXPECT_EQ(f.stable[0].size(), 1u);
  EXPECT_EQ(f.stable[0][0].second, CkptFixture::state(1));
}

TEST(Checkpointer, NewerCheckpointSupersedesOlder) {
  CkptFixture f;
  Bytes st10 = CkptFixture::state(10);
  Bytes st20 = CkptFixture::state(20);
  f.cps[0]->gen_cp(10, st10);
  f.cps[1]->gen_cp(10, st10);
  f.world.run_for(kSecond);
  f.cps[0]->gen_cp(20, st20);
  f.cps[1]->gen_cp(20, st20);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[0].size(), 2u);
  EXPECT_EQ(f.stable[0][1].first, 20u);
  // Old checkpoints arriving late are ignored (monotonically increasing).
  f.cps[2]->gen_cp(10, st10);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.stable[2].back().first, 20u);
}

TEST(Checkpointer, FetchFromGroupPeer) {
  CkptFixture f;
  Bytes st = CkptFixture::state(7);
  f.cps[0]->gen_cp(30, st);
  f.cps[1]->gen_cp(30, st);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[2].size(), 1u);  // replica 2 already pulled it

  // A fourth, freshly joining host can fetch it too — once the existing
  // replicas trust it (in the real system: registered via the registry /
  // add_checkpoint_peers).
  auto host = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                              Site{Region::Virginia, 0});
  f.trusted->insert(host->id());
  std::vector<NodeId> group;
  for (auto& h : f.hosts) group.push_back(h->id());
  group.push_back(host->id());
  std::vector<std::pair<SeqNr, Bytes>> got;
  std::vector<NodeId> trusted_group = group;
  Checkpointer joiner(
      *host, tags::kCheckpoint, group, 1,
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); },
      [trusted_group](NodeId n) {
        return std::find(trusted_group.begin(), trusted_group.end(), n) != trusted_group.end();
      });
  joiner.fetch_cp(30);
  f.world.run_for(2 * kSecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 30u);
  EXPECT_EQ(got[0].second, st);
}

TEST(Checkpointer, UntrustedFetcherIsIgnored) {
  // A node outside the trusted set can neither pull state nor force the
  // group into on-demand snapshots (Fetch is dropped up front).
  CkptFixture f;
  Bytes st = CkptFixture::state(7);
  f.cps[0]->gen_cp(30, st);
  f.cps[1]->gen_cp(30, st);
  f.world.run_for(kSecond);

  auto outsider = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                                  Site{Region::Virginia, 0});
  std::vector<NodeId> group;
  for (auto& h : f.hosts) group.push_back(h->id());
  group.push_back(outsider->id());
  std::vector<std::pair<SeqNr, Bytes>> got;
  Checkpointer thief(
      *outsider, tags::kCheckpoint, group, 1,
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); });
  thief.fetch_cp(30);
  f.world.run_for(2 * kSecond);
  EXPECT_TRUE(got.empty());
}

TEST(Checkpointer, FetchRetriesUntilAvailable) {
  CkptFixture f;
  f.cps[2]->fetch_cp(10);  // nothing exists yet
  f.world.run_for(kSecond);
  EXPECT_TRUE(f.stable[2].empty());
  // Checkpoint appears later; the retry timer picks it up.
  Bytes st = CkptFixture::state(3);
  f.cps[0]->gen_cp(10, st);
  f.cps[1]->gen_cp(10, st);
  f.world.run_for(3 * kSecond);
  ASSERT_FALSE(f.stable[2].empty());
}

TEST(Checkpointer, ForgedStateRejected) {
  // An attacker replays a State message with a proof that does not verify
  // (signatures from untrusted nodes).
  CkptFixture f;
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});

  Bytes fake_state = CkptFixture::state(666);
  // Signed by the attacker (twice) — not by group members.
  Bytes sig = f.world.crypto().sign(evil.id(), CkptFixture::checkpoint_auth(50, fake_state));

  Writer proof;
  proof.u32(2);
  proof.u32(evil.id());
  proof.bytes(sig);
  proof.u32(evil.id() + 1000);
  proof.bytes(sig);
  Bytes wire = CkptFixture::state_frame(50, fake_state, proof.data());
  for (auto& hpt : f.hosts) evil.send_to(hpt->id(), wire);

  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
}

TEST(Checkpointer, ForgedCheckpointMessageRejected) {
  CkptFixture f;
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  // Not a group member: its Checkpoint messages must be ignored entirely,
  // even with a valid signature of its own key.
  Bytes st = CkptFixture::state(9);
  Sha256Digest h = Sha256::hash(st);
  Writer body;
  body.u8(1);
  body.u64(10);
  body.raw(BytesView(h.data(), h.size()));
  Writer dom;
  dom.u32(tags::kCheckpoint);
  dom.raw(body.data());
  Bytes sig = f.world.crypto().sign(evil.id(), dom.data());
  Bytes wire_body = body.data();
  wire_body.insert(wire_body.end(), sig.begin(), sig.end());
  Writer wire;
  wire.u32(tags::kCheckpoint);
  wire.raw(wire_body);
  for (auto& hpt : f.hosts) evil.send_to(hpt->id(), wire.data());

  // One honest vote + the forged one must NOT stabilize.
  f.cps[0]->gen_cp(10, st);
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
}

TEST(Checkpointer, ProofVerifiesEachSignerOnce) {
  // A proof listing signers [A, A, B]: the repeat of an already verified
  // signer is skipped before any crypto, so adopting it costs two verifies.
  auto counting = std::make_unique<CountingCrypto>(1);
  CountingCrypto& crypto = *counting;
  CkptFixture f(3, 1, std::move(counting));
  NodeId a = f.hosts[0]->id();
  NodeId b = f.hosts[1]->id();

  Bytes st = CkptFixture::state(5);
  Bytes signed_bytes = CkptFixture::checkpoint_auth(50, st);
  Bytes sig_a = crypto.sign(a, signed_bytes);
  Writer proof;
  proof.u32(3);
  proof.u32(a);
  proof.bytes(sig_a);
  proof.u32(a);
  proof.bytes(sig_a);
  proof.u32(b);
  proof.bytes(crypto.sign(b, signed_bytes));
  f.hosts[0]->send_to(f.hosts[2]->id(), CkptFixture::state_frame(50, st, proof.data()));

  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[2].size(), 1u);
  EXPECT_EQ(f.stable[2][0].second, st);
  EXPECT_EQ(crypto.verifies_of(signed_bytes), 2u);
}

TEST(Checkpointer, LastStableTracksDeliveries) {
  CkptFixture f;
  EXPECT_EQ(f.cps[0]->last_stable(), 0u);
  Bytes st = CkptFixture::state(1);
  f.cps[0]->gen_cp(8, st);
  f.cps[1]->gen_cp(8, st);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.cps[0]->last_stable(), 8u);
  EXPECT_EQ(f.cps[2]->last_stable(), 8u);
}

}  // namespace
}  // namespace spider
