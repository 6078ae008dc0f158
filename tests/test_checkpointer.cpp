#include <gtest/gtest.h>

#include "sim/world.hpp"
#include "spider/checkpointer.hpp"
#include "tests/support/counting_crypto.hpp"

namespace spider {
namespace {

/// Group of 3 hosts (f=1) each with a checkpoint component. Replica i's
/// snapshot source returns `current[i]` and counts its calls in
/// `snapshots[i]`; gen(i, s, st) makes replica i checkpoint st at s.
struct CkptFixture {
  static constexpr std::uint64_t kInterval = 16;

  World world{1};
  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<ComponentHost>> hosts;
  std::vector<std::unique_ptr<Checkpointer>> cps;
  std::vector<std::pair<SeqNr, Bytes>> current;
  std::vector<int> snapshots;
  std::vector<std::vector<std::pair<SeqNr, Bytes>>> stable;

  explicit CkptFixture(std::uint32_t n = 3, std::uint32_t f = 1,
                       std::unique_ptr<CryptoProvider> crypto = nullptr)
      : world(1, std::move(crypto)), current(n), snapshots(n), stable(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<ComponentHost>(
          world, world.allocate_id(), Site{Region::Virginia, static_cast<std::uint8_t>(i % 3)}));
      ids.push_back(hosts.back()->id());
    }
    for (std::size_t i = 0; i < n; ++i) {
      cps.push_back(std::make_unique<Checkpointer>(
          *hosts[i], tags::kCheckpoint, ids, f, kInterval,
          [this, i] {
            ++snapshots[i];
            return current[i];
          },
          [this, i](SeqNr s, BytesView state) { stable[i].emplace_back(s, to_bytes(state)); }));
    }
  }

  /// Replica i checkpoints `st` at s now.
  void gen(std::size_t i, SeqNr s, Bytes st) {
    current[i] = {s, std::move(st)};
    cps[i]->checkpoint_now();
  }

  /// Replica i executed up to s.
  void executed(std::size_t i, SeqNr s) {
    current[i] = {s, state(static_cast<int>(s))};
    cps[i]->executed(s);
  }

  /// Ids for a peer group of n replicas that host no checkpointer.
  std::vector<NodeId> peer_ids(std::size_t n) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(world.allocate_id());
    return out;
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

  /// An encoded proof for `st` at `s`, signed by each of `signers`.
  Bytes proof(SeqNr s, const Bytes& st, const std::vector<NodeId>& signers) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(signers.size()));
    for (NodeId n : signers) {
      w.u32(n);
      w.bytes(world.crypto().sign(n, checkpoint_auth(s, st)));
    }
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
  f.gen(0, 10, st);
  f.gen(1, 10, st);  // f+1 = 2 matching
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
  f.gen(0, 10, CkptFixture::state(1));
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());  // CP-Safety: need f+1
}

TEST(Checkpointer, MismatchedStatesDoNotCombine) {
  CkptFixture f;
  f.gen(0, 10, CkptFixture::state(1));
  f.gen(1, 10, CkptFixture::state(2));  // diverging snapshot
  f.world.run_for(kSecond);
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());
  // A third matching vote resolves it.
  f.gen(2, 10, CkptFixture::state(1));
  f.world.run_for(kSecond);
  EXPECT_EQ(f.stable[0].size(), 1u);
  EXPECT_EQ(f.stable[0][0].second, CkptFixture::state(1));
}

TEST(Checkpointer, NewerCheckpointSupersedesOlder) {
  CkptFixture f;
  Bytes st10 = CkptFixture::state(10);
  Bytes st20 = CkptFixture::state(20);
  f.gen(0, 10, st10);
  f.gen(1, 10, st10);
  f.world.run_for(kSecond);
  f.gen(0, 20, st20);
  f.gen(1, 20, st20);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[0].size(), 2u);
  EXPECT_EQ(f.stable[0][1].first, 20u);
  // Old checkpoints arriving late are ignored (monotonically increasing).
  f.gen(2, 10, st10);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.stable[2].back().first, 20u);
}

TEST(Checkpointer, FetchFromGroupPeer) {
  CkptFixture f;
  Bytes st = CkptFixture::state(7);
  f.gen(0, 30, st);
  f.gen(1, 30, st);
  f.world.run_for(kSecond);
  ASSERT_EQ(f.stable[2].size(), 1u);  // replica 2 already pulled it

  // A replica of another group can fetch it too, once each side registers
  // the other as a peer group (in the real system: from the registry).
  auto host = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                              Site{Region::Virginia, 0});
  std::vector<NodeId> group = f.peer_ids(2);
  group.push_back(host->id());
  for (auto& cp : f.cps) cp->add_peer_group(2, group);
  std::vector<std::pair<SeqNr, Bytes>> got;
  Checkpointer joiner(
      *host, tags::kCheckpoint, group, 1, CkptFixture::kInterval,
      [] { return std::make_pair(SeqNr{0}, Bytes{}); },
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); });
  joiner.add_peer_group(1, f.ids);
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
  f.gen(0, 30, st);
  f.gen(1, 30, st);
  f.world.run_for(kSecond);

  auto outsider = std::make_unique<ComponentHost>(f.world, f.world.allocate_id(),
                                                  Site{Region::Virginia, 0});
  std::vector<NodeId> group = f.ids;
  group.push_back(outsider->id());
  std::vector<std::pair<SeqNr, Bytes>> got;
  Checkpointer thief(
      *outsider, tags::kCheckpoint, group, 1, CkptFixture::kInterval,
      [] { return std::make_pair(SeqNr{0}, Bytes{}); },
      [&](SeqNr s, BytesView state) { got.emplace_back(s, to_bytes(state)); });
  const std::vector<int> snapshots = f.snapshots;
  thief.fetch_cp(30);
  f.world.run_for(2 * kSecond);
  EXPECT_TRUE(got.empty());
  thief.fetch_cp(40);  // above the stable checkpoint: would force a snapshot
  f.world.run_for(2 * kSecond);
  EXPECT_EQ(f.snapshots, snapshots);
}

TEST(Checkpointer, FetchRetriesUntilAvailable) {
  CkptFixture f;
  f.cps[2]->fetch_cp(10);  // nothing exists yet
  f.world.run_for(kSecond);
  EXPECT_TRUE(f.stable[2].empty());
  // Checkpoint appears later; the retry timer picks it up.
  Bytes st = CkptFixture::state(3);
  f.gen(0, 10, st);
  f.gen(1, 10, st);
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
  f.gen(0, 10, st);
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

TEST(Checkpointer, ProofNeedsFPlusOneSignersOfOneGroup) {
  // Two peer groups, each with at most f = 1 faulty member: one signer
  // from each (or one from the own group and one from a peer group) may
  // both be faulty, so the group must not adopt what they sign.
  CkptFixture f;
  const std::vector<NodeId> g2 = f.peer_ids(3);
  const std::vector<NodeId> g3 = f.peer_ids(3);
  for (auto& cp : f.cps) {
    cp->add_peer_group(2, g2);
    cp->add_peer_group(3, g3);
  }
  ComponentHost sender(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  auto send = [&](const Bytes& st, const std::vector<NodeId>& signers) {
    const Bytes wire = CkptFixture::state_frame(50, st, f.proof(50, st, signers));
    for (auto& h : f.hosts) sender.send_to(h->id(), wire);
    f.world.run_for(kSecond);
  };

  const Bytes forged = CkptFixture::state(666);
  send(forged, {g2[0], g3[0]});
  send(forged, {f.ids[0], g2[0]});
  for (auto& s : f.stable) EXPECT_TRUE(s.empty());

  // f+1 signers of one peer group vouch for it.
  const Bytes st = CkptFixture::state(5);
  send(st, {g3[1], g3[2]});
  for (auto& s : f.stable) {
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s[0].first, 50u);
    EXPECT_EQ(s[0].second, st);
  }
}

TEST(Checkpointer, IntervalCountsFromNewestCheckpointTakenOrAdopted) {
  CkptFixture f;  // interval 16
  const int& taken = f.snapshots[0];
  f.executed(0, 15);
  EXPECT_EQ(taken, 0);
  f.executed(0, 17);  // a batch jumped past 16
  EXPECT_EQ(taken, 1);
  f.executed(0, 32);
  EXPECT_EQ(taken, 1);
  f.executed(0, 33);
  EXPECT_EQ(taken, 2);

  f.cps[0]->adopted(40);
  f.cps[0]->adopted(10);  // an older adoption leaves the mark alone
  f.executed(0, 55);
  EXPECT_EQ(taken, 2);
  f.executed(0, 56);
  EXPECT_EQ(taken, 3);

  f.gen(0, 60, CkptFixture::state(60));  // on demand: restarts the interval too
  EXPECT_EQ(taken, 4);
  f.executed(0, 75);
  EXPECT_EQ(taken, 4);
  f.executed(0, 76);
  EXPECT_EQ(taken, 5);
}

TEST(Checkpointer, LastStableTracksDeliveries) {
  CkptFixture f;
  EXPECT_EQ(f.cps[0]->last_stable(), 0u);
  Bytes st = CkptFixture::state(1);
  f.gen(0, 8, st);
  f.gen(1, 8, st);
  f.world.run_for(kSecond);
  EXPECT_EQ(f.cps[0]->last_stable(), 8u);
  EXPECT_EQ(f.cps[2]->last_stable(), 8u);
}

}  // namespace
}  // namespace spider
