#include <gtest/gtest.h>

#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider {
namespace {

/// Small intervals/capacities so checkpoint and flow-control paths are
/// exercised quickly.
SpiderTopology test_topology(std::vector<Region> regions = {Region::Virginia, Region::Oregon,
                                                            Region::Ireland, Region::Tokyo}) {
  SpiderTopology t;
  t.exec_regions = std::move(regions);
  t.ka = 4;
  t.ke = 4;
  t.ag_win = 16;
  t.commit_capacity = 8;
  t.request_timeout = kSecond;
  t.view_change_timeout = 2 * kSecond;
  t.client_retry = kSecond;
  return t;
}

struct Fixture {
  World world;
  SpiderSystem sys;

  explicit Fixture(SpiderTopology topo = test_topology(), std::uint64_t seed = 1)
      : world(seed), sys(world, std::move(topo)) {}

  /// Runs a blocking write and returns (result, latency).
  std::pair<KvReply, Duration> do_write(SpiderClient& c, const std::string& key,
                                        const std::string& value,
                                        Duration timeout = 10 * kSecond) {
    KvReply out;
    Duration lat = -1;
    c.write(kv_put(key, to_bytes(value)), [&](Bytes result, Duration l) {
      out = kv_decode_reply(result);
      lat = l;
    });
    Time deadline = world.now() + timeout;
    while (lat < 0 && world.now() < deadline) world.queue().run_next();
    return {out, lat};
  }

  std::pair<KvReply, Duration> do_strong_read(SpiderClient& c, const std::string& key,
                                              Duration timeout = 10 * kSecond) {
    KvReply out;
    Duration lat = -1;
    c.strong_read(kv_get(key), [&](Bytes result, Duration l) {
      out = kv_decode_reply(result);
      lat = l;
    });
    Time deadline = world.now() + timeout;
    while (lat < 0 && world.now() < deadline) world.queue().run_next();
    return {out, lat};
  }

  std::pair<KvReply, Duration> do_weak_read(SpiderClient& c, const std::string& key,
                                            Duration timeout = 10 * kSecond) {
    KvReply out;
    Duration lat = -1;
    c.weak_read(kv_get(key), [&](Bytes result, Duration l) {
      out = kv_decode_reply(result);
      lat = l;
    });
    Time deadline = world.now() + timeout;
    while (lat < 0 && world.now() < deadline) world.queue().run_next();
    return {out, lat};
  }
};

TEST(Spider, WriteCompletesFromLocalRegion) {
  Fixture f;
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = f.do_write(*client, "k", "v");
  EXPECT_TRUE(reply.ok);
  EXPECT_GT(lat, 0);
  // Virginia clients sit next to the agreement group: writes take a few ms
  // (paper: ~13 ms on EC2), no wide-area hop involved.
  EXPECT_LT(lat, 30 * kMillisecond);
}

TEST(Spider, WriteFromRemoteRegionTakesOneWanRoundTrip) {
  Fixture f;
  auto client = f.sys.make_client(Site{Region::Tokyo, 0});
  auto [reply, lat] = f.do_write(*client, "k", "v");
  EXPECT_TRUE(reply.ok);
  // One WAN round trip Tokyo<->Virginia (156 ms RTT) plus regional work.
  EXPECT_GT(lat, 150 * kMillisecond);
  EXPECT_LT(lat, 220 * kMillisecond);
}

TEST(Spider, WritePropagatesToAllGroups) {
  Fixture f;
  auto writer = f.sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = f.do_write(*writer, "shared", "hello");
  ASSERT_TRUE(reply.ok);
  f.world.run_for(kSecond);  // let commit channels drain everywhere

  for (GroupId g : f.sys.group_ids()) {
    for (std::size_t i = 0; i < f.sys.group_size(g); ++i) {
      const auto& app = f.sys.exec(g, i).app();
      KvReply r = kv_decode_reply(app.execute_readonly(kv_get("shared")));
      EXPECT_TRUE(r.ok) << "group " << g << " replica " << i;
      EXPECT_EQ(to_string(r.value), "hello");
    }
  }
}

TEST(Spider, SequentialWritesAllSucceed) {
  Fixture f;
  auto client = f.sys.make_client(Site{Region::Oregon, 0});
  for (int i = 0; i < 10; ++i) {
    auto [reply, lat] = f.do_write(*client, "k" + std::to_string(i), "v" + std::to_string(i));
    ASSERT_TRUE(reply.ok) << i;
  }
  EXPECT_EQ(client->retries(), 0u);
}

TEST(Spider, StrongReadSeesPrecedingWrite) {
  Fixture f;
  auto client = f.sys.make_client(Site{Region::Ireland, 0});
  ASSERT_TRUE(f.do_write(*client, "x", "42").first.ok);
  auto [reply, lat] = f.do_strong_read(*client, "x");
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(to_string(reply.value), "42");
}

TEST(Spider, StrongReadFromSecondClientLinearizes) {
  Fixture f;
  auto writer = f.sys.make_client(Site{Region::Virginia, 0});
  auto reader = f.sys.make_client(Site{Region::Tokyo, 0});
  ASSERT_TRUE(f.do_write(*writer, "x", "1").first.ok);
  ASSERT_TRUE(f.do_write(*writer, "x", "2").first.ok);
  // Strong read is ordered after both writes -> must see "2" (E-Safety II).
  auto [reply, lat] = f.do_strong_read(*reader, "x");
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(to_string(reply.value), "2");
}

TEST(Spider, WeakReadIsLocalAndFast) {
  Fixture f;
  auto client = f.sys.make_client(Site{Region::Tokyo, 0});
  auto [reply, lat] = f.do_weak_read(*client, "nokey");
  EXPECT_FALSE(reply.ok);  // key absent, but read completes
  EXPECT_LT(lat, 5 * kMillisecond);  // paper: <= 2 ms, no WAN hop
}

TEST(Spider, WeakReadEventuallySeesRemoteWrite) {
  Fixture f;
  auto writer = f.sys.make_client(Site{Region::Virginia, 0});
  auto reader = f.sys.make_client(Site{Region::Tokyo, 0});
  ASSERT_TRUE(f.do_write(*writer, "geo", "ok").first.ok);
  f.world.run_for(kSecond);  // commit channel propagation to Tokyo
  auto [reply, lat] = f.do_weak_read(*reader, "geo");
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(to_string(reply.value), "ok");
}

TEST(Spider, VirginiaWritesFarFasterThanTokyo) {
  Fixture f;
  auto va = f.sys.make_client(Site{Region::Virginia, 0});
  auto tk = f.sys.make_client(Site{Region::Tokyo, 0});
  auto [r1, lat_va] = f.do_write(*va, "a", "1");
  auto [r2, lat_tk] = f.do_write(*tk, "b", "2");
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_LT(lat_va * 5, lat_tk);  // paper Fig. 7: up to 95% lower latency
}

TEST(Spider, ByzantineReplicaRepliesOutvoted) {
  Fixture f;
  GroupId g = f.sys.nearest_group(Region::Oregon);
  f.world.byzantine(f.sys.exec(g, 0).id()).corrupt_replies = true;  // 1 of 3 corrupts results
  auto client = f.sys.make_client(Site{Region::Oregon, 0});
  auto [reply, lat] = f.do_write(*client, "k", "v");
  EXPECT_TRUE(reply.ok);  // fe+1 = 2 correct replies outvote the corruption
  auto [read, rlat] = f.do_weak_read(*client, "k");
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(to_string(read.value), "v");
}

TEST(Spider, ByzantineReplicaDroppingForwardsHarmless) {
  Fixture f;
  GroupId g = f.sys.nearest_group(Region::Ireland);
  f.world.byzantine(f.sys.exec(g, 1).id()).drop_forwarding = true;
  auto client = f.sys.make_client(Site{Region::Ireland, 0});
  auto [reply, lat] = f.do_write(*client, "k", "v");
  EXPECT_TRUE(reply.ok);  // fe+1 remaining correct replicas form the quorum
}

// An op the application cannot parse is ordered like any signed write: the
// agreement group checks signatures, not ops. Execution spends its sequence
// number on it, sends no reply (as the baselines do) and goes on executing.
constexpr std::uint8_t kUnknownKvOpcode = 0x07;

TEST(Spider, RejectedOpGetsNoReplyAndLaterWritesComplete) {
  Fixture f;
  auto bad = f.sys.make_client(Site{Region::Virginia, 0});
  auto good = f.sys.make_client(Site{Region::Virginia, 0});
  const GroupId g = bad->group().group;
  ASSERT_TRUE(f.do_write(*good, "warm", "w").first.ok);
  const SeqNr before = f.sys.exec(g, 0).executed_seq();

  bool replied = false;
  bad->write(Bytes{kUnknownKvOpcode}, [&](Bytes, Duration) { replied = true; });
  f.world.run_for(5 * kSecond);
  EXPECT_FALSE(replied);
  for (std::size_t i = 0; i < f.sys.group_size(g); ++i) {
    EXPECT_EQ(f.sys.exec(g, i).executed_seq(), before + 1) << "replica " << i;
  }

  for (int i = 0; i < 5; ++i) {
    auto [reply, lat] = f.do_write(*good, "k" + std::to_string(i), "v", 20 * kSecond);
    ASSERT_GE(lat, 0) << "write " << i << " never completed";
    EXPECT_TRUE(reply.ok);
  }
  EXPECT_EQ(f.sys.exec(g, 0).executed_seq(), before + 6);
  EXPECT_FALSE(replied);
}

TEST(Spider, RejectedOpFirstInItsBatchLeavesTheRestExecuting) {
  SpiderTopology topo = test_topology();
  topo.max_batch = 4;
  topo.batch_delay = 50 * kMillisecond;
  Fixture f(topo);
  std::vector<std::unique_ptr<SpiderClient>> clients;
  for (int i = 0; i < 5; ++i) clients.push_back(f.sys.make_client(Site{Region::Virginia, 0}));
  const GroupId g = clients[0]->group().group;
  ASSERT_TRUE(f.do_write(*clients[4], "warm", "w").first.ok);
  const SeqNr before = f.sys.exec(g, 0).executed_seq();
  const PbftReplica& primary = f.sys.agreement(0).consensus();
  const std::uint64_t batches_before = primary.batches_proposed();
  const std::uint64_t requests_before = primary.requests_proposed();

  // The rejected op first, three writes batched behind it.
  bool bad_replied = false;
  clients[0]->write(Bytes{kUnknownKvOpcode}, [&](Bytes, Duration) { bad_replied = true; });
  int ok = 0;
  for (int i = 1; i <= 3; ++i) {
    clients[i]->write(kv_put("k" + std::to_string(i), to_bytes("v")),
                      [&](Bytes r, Duration) { ok += kv_decode_reply(r).ok ? 1 : 0; });
  }
  const Time deadline = f.world.now() + 20 * kSecond;
  while (ok < 3 && f.world.now() < deadline && f.world.queue().run_next()) {
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(primary.batches_proposed(), batches_before + 1);
  EXPECT_EQ(primary.requests_proposed(), requests_before + 4);
  EXPECT_EQ(f.sys.exec(g, 0).executed_seq(), before + 4);

  auto [later, lat] = f.do_write(*clients[4], "later", "x", 20 * kSecond);
  EXPECT_GE(lat, 0) << "a write after the batch never completed";
  EXPECT_TRUE(later.ok);
  EXPECT_FALSE(bad_replied);
}

TEST(Spider, CrashedExecutionReplicaTolerated) {
  Fixture f;
  GroupId g = f.sys.nearest_group(Region::Tokyo);
  f.world.net().set_node_down(f.sys.exec(g, 2).id(), true);
  auto client = f.sys.make_client(Site{Region::Tokyo, 0});
  EXPECT_TRUE(f.do_write(*client, "k", "v").first.ok);
  EXPECT_TRUE(f.do_weak_read(*client, "k").first.ok);
}

TEST(Spider, CrashedAgreementFollowerTolerated) {
  Fixture f;
  f.world.net().set_node_down(f.sys.agreement(3).id(), true);
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(f.do_write(*client, "k", "v").first.ok);
}

TEST(Spider, CrashedAgreementLeaderRecoveredByViewChange) {
  Fixture f;
  f.world.net().set_node_down(f.sys.agreement(0).id(), true);  // view-0 primary
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  auto [reply, lat] = f.do_write(*client, "k", "v", 30 * kSecond);
  EXPECT_TRUE(reply.ok);
  EXPECT_GE(f.sys.agreement(1).consensus().view(), 1u);
  // Subsequent writes are fast again (leader change is intra-region).
  auto [r2, lat2] = f.do_write(*client, "k2", "v2");
  EXPECT_TRUE(r2.ok);
  EXPECT_LT(lat2, 50 * kMillisecond);
}

TEST(Spider, LaggingExecutionReplicaCatchesUpViaCheckpoint) {
  Fixture f;
  GroupId g = f.sys.nearest_group(Region::Virginia);
  NodeId lagger = f.sys.exec(g, 2).id();
  f.world.net().set_node_down(lagger, true);

  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  for (int i = 0; i < 30; ++i) {  // far beyond commit capacity (8)
    ASSERT_TRUE(f.do_write(*client, "k" + std::to_string(i), "v").first.ok);
  }
  SeqNr healthy_seq = f.sys.exec(g, 0).executed_seq();
  EXPECT_LT(f.sys.exec(g, 2).executed_seq(), healthy_seq);

  f.world.net().set_node_down(lagger, false);
  // Another write nudges the pipeline; checkpoint fetch closes the gap.
  ASSERT_TRUE(f.do_write(*client, "post", "v").first.ok);
  f.world.run_for(5 * kSecond);
  EXPECT_GE(f.sys.exec(g, 2).executed_seq(), healthy_seq);
  EXPECT_GE(f.sys.exec(g, 2).catchups(), 1u);
  KvReply r = kv_decode_reply(f.sys.exec(g, 2).app().execute_readonly(kv_get("k0")));
  EXPECT_TRUE(r.ok);
}

TEST(Spider, CheckpointSignedAcrossGroupsIsNotAdopted) {
  // One faulty replica in each of two other groups, each group still
  // within fe = 1, sign a checkpoint of a state no client wrote. Pooled,
  // they make fe+1 signatures, but no group vouches for it, so the
  // replicas of a correct group must not adopt it.
  Fixture f(SpiderTopology{}, 7);
  const std::vector<GroupId> groups = f.sys.group_ids();
  const GroupId victim = groups[0];
  ASSERT_EQ(f.sys.nearest_group(Region::Virginia), victim);
  const std::vector<NodeId> forgers = {f.sys.group_info(groups[1]).members[0],
                                       f.sys.group_info(groups[2]).members[0]};

  KvStore app;
  app.execute(kv_put("k", to_bytes(std::string("forged"))));
  const Bytes app_state = app.snapshot();
  const Bytes image =
      codec::encode(ReplicaImage<ExecutionReplica::ReplyCacheEntry>{{}, app_state});
  const SeqNr s = 1000;
  Writer signed_bytes;
  signed_bytes.u32(tags::kCheckpoint);
  signed_bytes.raw(
      codec::encode(CheckpointMsgType::Checkpoint, CheckpointMsg{s, Sha256::hash(image)}));
  std::vector<Bytes> sigs;
  CheckpointProof proof;
  for (NodeId n : forgers) sigs.push_back(f.world.crypto().sign(n, signed_bytes.data()));
  for (std::size_t i = 0; i < forgers.size(); ++i) proof.sigs.emplace_back(forgers[i], sigs[i]);
  const Bytes proof_bytes = codec::encode(proof);
  Writer wire;
  wire.u32(tags::kCheckpoint);
  wire.raw(codec::encode(CheckpointMsgType::State, StateMsg{s, image, proof_bytes}));

  ComponentHost sender(f.world, f.world.allocate_id(), Site{Region::Virginia, 2});
  for (NodeId n : f.sys.group_info(victim).members) sender.send_to(n, wire.data());
  f.world.run_for(kSecond);
  for (std::size_t i = 0; i < f.sys.group_size(victim); ++i) {
    EXPECT_EQ(f.sys.exec(victim, i).executed_seq(), 0u);
    EXPECT_EQ(f.sys.exec(victim, i).catchups(), 0u);
  }

  auto client = f.sys.make_client(Site{Region::Virginia, 1});
  auto [reply, lat] = f.do_weak_read(*client, "k");
  ASSERT_GE(lat, 0);
  EXPECT_FALSE(reply.ok) << "weak read returned " << to_string(reply.value);
}

TEST(Spider, TrailingGroupSkippedWithZ) {
  SpiderTopology topo = test_topology();
  topo.z = 1;  // tolerate one trailing execution group
  Fixture f(topo);

  // Kill the whole Tokyo group.
  GroupId tokyo = f.sys.nearest_group(Region::Tokyo);
  for (std::size_t i = 0; i < f.sys.group_size(tokyo); ++i) {
    f.world.net().set_node_down(f.sys.exec(tokyo, i).id(), true);
  }

  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  for (int i = 0; i < 30; ++i) {
    auto [reply, lat] = f.do_write(*client, "k" + std::to_string(i), "v");
    ASSERT_TRUE(reply.ok) << "write " << i << " stalled behind dead group";
  }

  // Revive Tokyo: it fell behind the commit window and must recover via a
  // cross-group execution checkpoint (paper §3.5).
  for (std::size_t i = 0; i < f.sys.group_size(tokyo); ++i) {
    f.world.net().set_node_down(f.sys.exec(tokyo, i).id(), false);
  }
  ASSERT_TRUE(f.do_write(*client, "post", "v").first.ok);
  f.world.run_for(10 * kSecond);
  SeqNr healthy = f.sys.exec(f.sys.nearest_group(Region::Virginia), 0).executed_seq();
  EXPECT_GE(f.sys.exec(tokyo, 0).executed_seq() + 2, healthy);
}

TEST(Spider, AddGroupAtRuntime) {
  Fixture f(test_topology({Region::Virginia, Region::Oregon}));
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(f.do_write(*client, "before", "1").first.ok);

  bool added = false;
  GroupId sp = f.sys.add_group(Region::SaoPaulo, [&] { added = true; });
  Time deadline = f.world.now() + 30 * kSecond;
  while (!added && f.world.now() < deadline) f.world.queue().run_next();
  ASSERT_TRUE(added);
  EXPECT_EQ(f.sys.agreement(0).group_count(), 3u);

  // Drive a write so the new group receives Executes/checkpoints, then a
  // local client in Sao Paulo can use the new group.
  ASSERT_TRUE(f.do_write(*client, "after", "2").first.ok);
  f.world.run_for(10 * kSecond);

  auto sp_client = f.sys.make_client(Site{Region::SaoPaulo, 0});
  EXPECT_EQ(sp_client->group().group, sp);
  auto [w, wl] = f.do_write(*sp_client, "sp", "3");
  EXPECT_TRUE(w.ok);
  auto [rd, rl] = f.do_weak_read(*sp_client, "before");
  EXPECT_TRUE(rd.ok);  // caught up with pre-join state via checkpoint
  EXPECT_EQ(to_string(rd.value), "1");
  EXPECT_LT(rl, 5 * kMillisecond);  // local weak reads (paper Fig. 10b)
}

TEST(Spider, RemoveGroupAtRuntime) {
  Fixture f;
  GroupId tokyo = f.sys.nearest_group(Region::Tokyo);
  bool removed = false;
  f.sys.remove_group(tokyo, [&] { removed = true; });
  Time deadline = f.world.now() + 30 * kSecond;
  while (!removed && f.world.now() < deadline) f.world.queue().run_next();
  ASSERT_TRUE(removed);
  EXPECT_EQ(f.sys.agreement(0).group_count(), 3u);

  // Remaining groups keep working.
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(f.do_write(*client, "still", "works").first.ok);
}

TEST(Spider, FaultyClientConflictingRequestsContained) {
  Fixture f;
  GroupId g = f.sys.nearest_group(Region::Virginia);
  ClientGroupInfo info = f.sys.group_info(g);

  // A Byzantine "client" sends a *different* signed request to each
  // execution replica for the same counter: no fe+1 quorum can form in its
  // request subchannel, so nothing is ordered — and correct clients are
  // unaffected (paper §3.7).
  ComponentHost evil(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  for (std::size_t i = 0; i < info.members.size(); ++i) {
    ClientRequest req{OpKind::Write, evil.id(), 1,
                      kv_put("evil", to_bytes(std::string("v") + std::to_string(i)))};
    Writer dom;
    dom.u32(tags::kClient);
    dom.raw(codec::encode(req));
    Bytes sig = f.world.crypto().sign(evil.id(), dom.data());
    Bytes frame = codec::encode(ClientFrame{req, sig});
    Writer w;
    w.u32(tags::kClient);
    w.raw(frame);
    Bytes mac = f.world.crypto().mac(evil.id(), info.members[i], w.data());
    Bytes wire = frame;
    wire.insert(wire.end(), mac.begin(), mac.end());
    Writer outer;
    outer.u32(tags::kClient);
    outer.raw(wire);
    evil.send_to(info.members[i], std::move(outer).take());
  }
  f.world.run_for(3 * kSecond);

  // The conflicting request never executed anywhere.
  KvReply r = kv_decode_reply(f.sys.exec(g, 0).app().execute_readonly(kv_get("evil")));
  EXPECT_FALSE(r.ok);

  // Correct clients proceed normally.
  auto client = f.sys.make_client(Site{Region::Virginia, 0});
  EXPECT_TRUE(f.do_write(*client, "good", "v").first.ok);
}

TEST(Spider, RegistryQueryListsGroups) {
  Fixture f;
  ComponentHost asker(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  // Raw query to one agreement replica (clients would collect fa+1 matching).
  struct Capture : ComponentHost {
    using ComponentHost::ComponentHost;
    Bytes got;
    void on_message(NodeId, BytesView data) override { got = to_bytes(data); }
  };
  Capture cap(f.world, f.world.allocate_id(), Site{Region::Virginia, 0});
  Writer q;
  q.u32(tags::kRegistry);
  cap.send_to(f.sys.agreement(0).id(), std::move(q).take());
  f.world.run_for(kSecond);
  ASSERT_FALSE(cap.got.empty());
  Reader r(cap.got);
  ASSERT_EQ(r.u32(), tags::kRegistry);
  BytesView rest = r.raw(r.remaining());
  BytesView body = rest.subspan(0, rest.size() - f.world.crypto().mac_size());
  auto snap = codec::decode<RegistrySnapshot>(body);
  EXPECT_EQ(snap.groups.size(), 4u);
}

TEST(Spider, SenderCollectIrmcEndToEnd) {
  SpiderTopology topo = test_topology();
  topo.irmc_kind = IrmcKind::SenderCollect;
  Fixture f(topo);
  auto client = f.sys.make_client(Site{Region::Tokyo, 0});
  auto [reply, lat] = f.do_write(*client, "k", "v");
  EXPECT_TRUE(reply.ok);
  auto [read, rlat] = f.do_strong_read(*client, "k");
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(to_string(read.value), "v");
}

TEST(Spider, DeterministicAcrossRuns) {
  auto run = [] {
    Fixture f(test_topology(), 31337);
    auto client = f.sys.make_client(Site{Region::Ireland, 0});
    std::vector<Duration> lats;
    for (int i = 0; i < 3; ++i) {
      auto [reply, lat] = f.do_write(*client, "k" + std::to_string(i), "v");
      lats.push_back(lat);
    }
    return lats;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace spider
