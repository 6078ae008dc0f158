#include <gtest/gtest.h>

#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "sim/world.hpp"
#include "tests/support/drive.hpp"
#include "tests/support/recording.hpp"

namespace spider {
namespace {

std::vector<Site> geo_sites() {
  return {Site{Region::Virginia, 0}, Site{Region::Oregon, 0}, Site{Region::Ireland, 0},
          Site{Region::Tokyo, 0}};
}

template <typename MakeClient>
std::pair<KvReply, Duration> run_write(World& world, MakeClient& client, const std::string& key,
                                       const std::string& value,
                                       Duration timeout = 30 * kSecond) {
  KvReply out;
  Duration lat = -1;
  client.write(kv_put(key, to_bytes(value)), [&](Bytes result, Duration l) {
    out = kv_decode_reply(result);
    lat = l;
  });
  Time deadline = world.now() + timeout;
  while (lat < 0 && world.now() < deadline) world.queue().run_next();
  return {out, lat};
}

template <typename MakeClient>
std::pair<KvReply, Duration> run_weak_read(World& world, MakeClient& client,
                                           const std::string& key,
                                           Duration timeout = 30 * kSecond) {
  KvReply out;
  Duration lat = -1;
  client.weak_read(kv_get(key), [&](Bytes result, Duration l) {
    out = kv_decode_reply(result);
    lat = l;
  });
  Time deadline = world.now() + timeout;
  while (lat < 0 && world.now() < deadline) world.queue().run_next();
  return {out, lat};
}

// ----------------------------------------------------------------- BFT

TEST(BaselineBft, WriteCompletesOverWan) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  ASSERT_TRUE(reply.ok);
  // Full consensus over wide-area links: order of a WAN round trip.
  EXPECT_GT(lat, 60 * kMillisecond);
  EXPECT_LT(lat, 400 * kMillisecond);
}

TEST(BaselineBft, ClosedLoopClientExecutesEachOpOnce) {
  // Each write is issued from the previous write's completion callback; a
  // second start of the client's lane after the callback would order and
  // execute every write but the last twice (19 executions for 10 writes).
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_EQ(drive::closed_loop_writes(world, *client, 10), 10);
  world.run_for(2 * kSecond);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_EQ(sys.replica(i).executed_seq(), 10u) << "replica " << i;
    EXPECT_EQ(static_cast<const KvStore&>(sys.replica(i).app()).shard_seq(), 10u)
        << "replica " << i;
  }
}

TEST(BaselineBft, StateConsistentAcrossReplicas) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Oregon, 0});
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);
  world.run_for(2 * kSecond);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    KvReply r = kv_decode_reply(sys.replica(i).app().execute_readonly(kv_get("k")));
    EXPECT_TRUE(r.ok) << i;
  }
}

TEST(BaselineBft, WeakReadNeedsWanQuorum) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_weak_read(world, *client, "nope");
  EXPECT_FALSE(reply.ok);
  // f+1 matching replies require at least the second-closest replica
  // (Oregon, 68 ms RTT) — weak reads are NOT local in flat BFT (Fig. 8b).
  EXPECT_GT(lat, 60 * kMillisecond);
}

TEST(BaselineBft, SequentialWritesSucceed) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Tokyo, 0});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(run_write(world, *client, "k" + std::to_string(i), "v").first.ok) << i;
  }
}

TEST(BaselineBft, CrashedFollowerTolerated) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  world.net().set_node_down(sys.replica(3).id(), true);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(run_write(world, *client, "k", "v").first.ok);
}

TEST(BaselineBft, LeaderCrashCausesWanViewChange) {
  World world(1);
  BftConfig cfg{geo_sites()};
  cfg.request_timeout = kSecond;
  cfg.view_change_timeout = 2 * kSecond;
  BftSystem sys(world, cfg);
  world.net().set_node_down(sys.replica(0).id(), true);
  auto client = sys.make_client(Site{Region::Ireland, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  EXPECT_TRUE(reply.ok);
  EXPECT_GE(sys.replica(1).consensus().view(), 1u);
}

TEST(BaselineBft, DirectStrongReadFallsBackToOrderingWhenRepliesDisagree) {
  World world(1);
  BftSystem sys(world, BftConfig{geo_sites()});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);

  // One replica down, one corrupting its replies: the three that answer
  // never give 2f+1 matching direct replies. After
  // kDirectReadFallbackRetries timer expiries the read is ordered, and the
  // f+1 correct ordered replies answer from the committed state.
  world.net().set_node_down(sys.replica(3).id(), true);
  world.byzantine(sys.replica(2).id()).corrupt_replies = true;
  drive::KvOutcome read = drive::blocking_strong_read(world, *client, "k", 120 * kSecond);
  ASSERT_TRUE(read.done);
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(to_string(read.value), "v");
  // Every expiry before the last retransmitted the direct request; the
  // ordered request completed without one.
  EXPECT_EQ(client->retries(), SpiderClient::kDirectReadFallbackRetries - 1);
  const auto latency = [&](const char* name) -> const obs::LogHistogram& {
    return world.metrics().histogram(name, {.node = client->id(), .role = "client"});
  };
  EXPECT_EQ(latency("client_latency_ordered").count(), 2u);  // the write and the read
  EXPECT_EQ(latency("client_latency_direct").count(), 0u);
}

TEST(BaselineBft, Spider0EConfiguration) {
  // Spider-0E: the agreement group executes requests itself, placed in
  // Virginia AZs (paper Figure 9a).
  World world(1);
  std::vector<Site> azs = {Site{Region::Virginia, 0}, Site{Region::Virginia, 1},
                           Site{Region::Virginia, 2}, Site{Region::Virginia, 3}};
  BftSystem sys(world, BftConfig{azs});
  auto near = sys.make_client(Site{Region::Virginia, 0});
  auto far = sys.make_client(Site{Region::Tokyo, 0});
  auto [r1, lat_near] = run_write(world, *near, "a", "1");
  auto [r2, lat_far] = run_write(world, *far, "b", "2");
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_LT(lat_near, 30 * kMillisecond);
  EXPECT_GT(lat_far, 150 * kMillisecond);  // dominated by client WAN RTT
}

// ----------------------------------------------------------------- BFT-WV

TEST(BaselineBftWv, WeightedVotingOrders) {
  World world(1);
  std::vector<Site> sites = geo_sites();
  sites.push_back(Site{Region::SaoPaulo, 0});
  BftConfig cfg{sites};
  cfg.weights = {2, 2, 1, 1, 1};  // WHEAT: Vmax on Virginia and Oregon
  cfg.quorum_weight = 5;
  BftSystem sys(world, cfg);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  ASSERT_TRUE(reply.ok);
  // Fast quorum V(2)+O(2)+I(1): not slower than plain BFT.
  EXPECT_LT(lat, 400 * kMillisecond);
}

// ----------------------------------------------------------------- HFT

TEST(BaselineHft, WriteCompletes) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = run_write(world, *client, "k", "v");
  ASSERT_TRUE(reply.ok);
  EXPECT_GT(lat, 30 * kMillisecond);   // wide-area accept exchange
  EXPECT_LT(lat, 500 * kMillisecond);
}

TEST(BaselineHft, AllSitesExecute) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Ireland, 0});
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);
  world.run_for(2 * kSecond);
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    KvReply r = kv_decode_reply(sys.replica(s, 0).app().execute_readonly(kv_get("k")));
    EXPECT_TRUE(r.ok) << "site " << s;
  }
}

TEST(BaselineHft, ReplayedCertificateCannotCarryAnotherFrame) {
  // A Byzantine representative of site 1 (one of f per site) replays its
  // site's real Update certificate next to a frame the site never
  // certified: an unsigned write for a client that does not exist. The
  // leader must check that the certified digest names the frame it orders.
  RecordedWorld rw(1);
  World& world = rw.world;
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Oregon, 0});  // site 1
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);

  const NodeId rep = sys.replica(1, 0).id();
  const NodeId leader = sys.replica(0, 0).id();
  std::optional<hft::CertifiedMsg> update;
  for (const RecordingTransport::Frame& f : rw.recorder.frames) {
    const BytesView wire = f.data.view();
    if (f.from != rep || f.to != leader || wire.size() < 5) continue;
    const BytesView body = wire.subspan(4, wire.size() - 4 - world.crypto().mac_size());
    if (body[0] == static_cast<std::uint8_t>(hft::Kind::Update)) {
      update = codec::decode<hft::CertifiedMsg>(body.subspan(1));
    }
  }
  ASSERT_TRUE(update.has_value());

  const ClientRequest forged{OpKind::Write, 999, 1, kv_put("forged", to_bytes(std::string("x")))};
  update->frame = codec::encode(ClientFrame{forged, {}});
  Writer wire;
  wire.u32(tags::kHft);
  codec::write(wire, static_cast<std::uint8_t>(hft::Kind::Update));
  codec::write(wire, *update);
  Bytes frame = std::move(wire).take();
  const Bytes mac = world.crypto().mac(rep, leader, frame);
  frame.insert(frame.end(), mac.begin(), mac.end());
  world.net().send(rep, leader, Payload(std::move(frame)), TrafficClass::kOrdered);
  world.run_for(5 * kSecond);

  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(sys.replica(s, i).executed_seq(), 1u) << "site " << s << " replica " << i;
      EXPECT_FALSE(kv_decode_reply(sys.replica(s, i).app().execute_readonly(kv_get("forged"))).ok);
    }
  }
}

TEST(BaselineHft, SiteReplicasSignOnlyTheFrameTheyAreShown) {
  // A Byzantine representative of site 1 asks its three replicas to sign
  // an Update statement naming the digest of an unsigned write by a client
  // that does not exist, showing them an honest client's signed frame
  // instead, then sends the leader that certificate next to the forged
  // frame. Site replicas must check that the statement names the frame.
  RecordedWorld rw(1);
  World& world = rw.world;
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Oregon, 0});  // site 1
  ASSERT_TRUE(run_write(world, *client, "k", "v").first.ok);

  const NodeId rep = sys.replica(1, 0).id();
  const NodeId leader = sys.replica(0, 0).id();
  const auto body_of = [&](const RecordingTransport::Frame& f) {
    const BytesView wire = f.data.view();
    return wire.subspan(4, wire.size() - 4 - world.crypto().mac_size());
  };
  std::optional<Bytes> honest;
  for (const RecordingTransport::Frame& f : rw.recorder.frames) {
    if (f.from != rep || f.to != leader || f.data.size() < 5) continue;
    const BytesView body = body_of(f);
    if (body[0] == static_cast<std::uint8_t>(hft::Kind::Update)) {
      honest = codec::decode<hft::CertifiedMsg>(body.subspan(1)).frame;
    }
  }
  ASSERT_TRUE(honest.has_value());

  const ClientRequest forged{OpKind::Write, 999, 1, kv_put("forged", to_bytes(std::string("x")))};
  const Bytes forged_frame = codec::encode(ClientFrame{forged, {}});
  const Bytes statement =
      codec::encode(hft::Kind::Update, hft::UpdateStmt{1, Sha256::hash(forged_frame)});
  const auto send_hft = [&](NodeId to, const Bytes& body) {
    Writer wire;
    wire.u32(tags::kHft);
    wire.raw(body);
    Bytes frame = std::move(wire).take();
    const Bytes mac = world.crypto().mac(rep, to, frame);
    frame.insert(frame.end(), mac.begin(), mac.end());
    world.net().send(rep, to, Payload(std::move(frame)), TrafficClass::kOrdered);
  };

  const std::size_t mark = rw.recorder.frames.size();
  const Bytes sign_req = codec::encode(hft::Kind::SignReq, hft::SignMsg{statement, *honest});
  for (std::uint32_t i = 1; i < 4; ++i) send_hft(sys.replica(1, i).id(), sign_req);
  world.run_for(1 * kSecond);

  Writer dom;
  dom.u32(tags::kHft);
  dom.raw(statement);
  hft::Certificate sigs{{rep, world.crypto().sign(rep, dom.data())}};
  for (std::size_t k = mark; k < rw.recorder.frames.size(); ++k) {
    const RecordingTransport::Frame& f = rw.recorder.frames[k];
    if (f.to != rep || f.data.size() < 5) continue;
    const BytesView body = body_of(f);
    if (body[0] != static_cast<std::uint8_t>(hft::Kind::Partial)) continue;
    hft::SignMsg partial = codec::decode<hft::SignMsg>(body.subspan(1));
    if (partial.statement == statement) sigs.emplace_back(f.from, std::move(partial.data));
  }
  EXPECT_EQ(sigs.size(), 1u) << "site replicas signed a digest of a frame they were not shown";

  send_hft(leader,
           codec::encode(hft::Kind::Update, hft::CertifiedMsg{statement, forged_frame, sigs}));
  world.run_for(5 * kSecond);

  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(sys.replica(s, i).executed_seq(), 1u) << "site " << s << " replica " << i;
      EXPECT_FALSE(kv_decode_reply(sys.replica(s, i).app().execute_readonly(kv_get("forged"))).ok);
    }
  }
}

TEST(BaselineHft, WeakReadsAreLocal) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto client = sys.make_client(Site{Region::Tokyo, 0});
  auto [reply, lat] = run_weak_read(world, *client, "nope");
  EXPECT_FALSE(reply.ok);
  EXPECT_LT(lat, 5 * kMillisecond);  // answered by the local site (Fig. 8b)
}

TEST(BaselineHft, RemoteSiteSlowerThanLeaderSite) {
  World world(1);
  HftSystem sys(world, HftConfig{});  // leader site Virginia
  auto va = sys.make_client(Site{Region::Virginia, 0});
  auto tk = sys.make_client(Site{Region::Tokyo, 0});
  auto [r1, lat_va] = run_write(world, *va, "a", "1");
  auto [r2, lat_tk] = run_write(world, *tk, "b", "2");
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_LT(lat_va, lat_tk);
}

TEST(BaselineHft, SequentialWritesFromMultipleSites) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto va = sys.make_client(Site{Region::Virginia, 0});
  auto ir = sys.make_client(Site{Region::Ireland, 0});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(run_write(world, *va, "va" + std::to_string(i), "v").first.ok);
    ASSERT_TRUE(run_write(world, *ir, "ir" + std::to_string(i), "v").first.ok);
  }
  world.run_for(2 * kSecond);
  // Same total order everywhere: all sites executed all 6 writes.
  for (std::uint32_t s = 0; s < sys.site_count(); ++s) {
    EXPECT_EQ(sys.replica(s, 1).executed_seq(), 6u) << "site " << s;
  }
}

TEST(BaselineHft, ConcurrentSubmissionBothOrdered) {
  World world(1);
  HftSystem sys(world, HftConfig{});
  auto va = sys.make_client(Site{Region::Virginia, 0});
  auto tk = sys.make_client(Site{Region::Tokyo, 0});
  int done = 0;
  va->write(kv_put("a", to_bytes(std::string("1"))), [&](Bytes, Duration) { ++done; });
  tk->write(kv_put("b", to_bytes(std::string("2"))), [&](Bytes, Duration) { ++done; });
  Time deadline = world.now() + 30 * kSecond;
  while (done < 2 && world.now() < deadline) world.queue().run_next();
  EXPECT_EQ(done, 2);
}

}  // namespace
}  // namespace spider
