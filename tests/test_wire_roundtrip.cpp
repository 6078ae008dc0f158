// Canonical decoding over captured traffic: every frame the system sends
// decodes and encodes back to itself, byte for byte.
//
// A recording Transport (tests/support/recording.hpp) sits between the
// nodes and the sim network and keeps every frame sent. Five runs are captured: a
// Spider deployment over IRMC-RC and one over IRMC-SC (primary crash and
// restart, a partitioned execution replica, a registry query and, on RC, a
// group added at runtime), the PBFT baseline (primary crash, partition),
// the HFT baseline, and two shards with one live migration, multi-key and
// Size operations and a restarted execution replica. Each frame goes
// through the (tag family, type) -> decoder table in
// tests/support/wire_table.hpp, replies are decoded by the request they
// answer and checkpoint states by the replica kind that receives them, and
// together the runs must produce every type the codec covers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "shard/sharded_system.hpp"
#include "sim/fault_plan.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"
#include "tests/support/chaos.hpp"
#include "tests/support/drive.hpp"
#include "tests/support/recording.hpp"
#include "tests/support/wire_table.hpp"

namespace spider {
namespace {

using Roles = std::map<NodeId, wire::To>;

/// Runs every captured frame through the decoder table; frames to a node
/// without a role are frames to a client.
void decode_all(const RecordingTransport& rec, const Roles& roles, wire::Decoder& dec) {
  dec.begin_capture();
  for (const RecordingTransport::Frame& f : rec.frames) {
    auto it = roles.find(f.to);
    dec.frame(f.data.view(), f.to, it == roles.end() ? wire::To::Client : it->second);
  }
}

void add_roles(Roles& roles, const std::vector<NodeId>& ids, wire::To role) {
  for (NodeId n : ids) roles.emplace(n, role);
}

/// Agreement replicas first: every other replica of a core executes.
Roles spider_roles(SpiderSystem& core) {
  Roles roles;
  add_roles(roles, core.agreement_ids(), wire::To::Agreement);
  add_roles(roles, core.replica_ids(), wire::To::Exec);
  return roles;
}

SpiderTopology small_core() {
  SpiderTopology t;
  t.ka = 8;
  t.ke = 8;
  t.ag_win = 32;
  t.commit_capacity = 16;
  t.client_retry = kSecond;
  t.request_timeout = kSecond;
  t.view_change_timeout = 2 * kSecond;
  return t;
}

/// Three clients' writes, strong reads and weak reads over ~10 s, driven to
/// completion after the faults end.
void run_workload(World& world, std::vector<chaos::ClientHandle> handles, HistoryRecorder& hist,
                  Time until) {
  chaos::WorkloadOptions opt;
  opt.ops_per_client = 14;
  chaos::schedule_workload(world, std::move(handles), chaos::key_pool(6), opt);
  world.run_until(until);
  ASSERT_TRUE(drive::run_until(world, [&] { return hist.pending_count() == 0; },
                               120 * kSecond));
}

void capture_spider(IrmcKind kind, wire::Decoder& dec) {
  RecordedWorld rw(21);
  World& world = rw.world;
  SpiderTopology topo = small_core();
  topo.exec_regions = {Region::Virginia, Region::Tokyo};
  topo.irmc_kind = kind;
  SpiderSystem sys(world, topo);
  HistoryRecorder hist(world);
  FaultPlan plan(world, sys);

  // The primary crashes (view change) and comes back (state transfer); an
  // execution replica is cut off and healed (retransmission, collector
  // switches).
  const GroupId tokyo = sys.nearest_group(Region::Tokyo);
  const NodeId cut = sys.exec(tokyo, 2).id();
  std::vector<NodeId> others;
  for (NodeId n : sys.replica_ids()) {
    if (n != cut) others.push_back(n);
  }
  plan.crash_at(3 * kSecond, sys.agreement(0).id());
  plan.restart_at(9 * kSecond, sys.agreement(0).id());
  plan.partition_nodes_at(4 * kSecond, {cut}, others, 5 * kSecond);

  std::vector<std::unique_ptr<SpiderClient>> clients;
  clients.push_back(sys.make_client(Site{Region::Virginia, 0}));
  clients.push_back(sys.make_client(Site{Region::Tokyo, 0}));
  clients.push_back(sys.make_client(Site{Region::Oregon, 1}));
  std::vector<chaos::ClientHandle> handles;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    handles.push_back(chaos::ClientHandle::wrap(hist, *clients[i], i));
  }

  // A registry query, answered with a MAC'd snapshot.
  ComponentHost asker(world, world.allocate_id(), Site{Region::Virginia, 0});
  Writer query;
  query.u32(tags::kRegistry);
  asker.send_to(sys.agreement(1).id(), std::move(query).take());
  if (kind == IrmcKind::ReceiverCollect) {
    world.run_for(10 * kMillisecond);
    sys.add_group(Region::Oregon);
  }

  run_workload(world, std::move(handles), hist, 16 * kSecond);
  world.run_for(2 * kSecond);
  decode_all(rw.recorder, spider_roles(sys), dec);
}

TEST(WireRoundTrip, CapturedTrafficIsCanonical) {
  // Every World here authenticates with FastCrypto, the default provider.
  wire::Decoder dec(FastCrypto(0));
  capture_spider(IrmcKind::ReceiverCollect, dec);
  capture_spider(IrmcKind::SenderCollect, dec);

  // The PBFT baseline: the primary crashes and restarts, a backup is cut
  // off for a while.
  {
    RecordedWorld rw(22);
    World& world = rw.world;
    BftConfig cfg;
    cfg.sites = {Site{Region::Virginia, 0}, Site{Region::Oregon, 0}, Site{Region::Ireland, 0},
                 Site{Region::Tokyo, 0}};
    cfg.checkpoint_interval = 8;
    cfg.request_timeout = 2 * kSecond;
    cfg.view_change_timeout = 3 * kSecond;
    BftSystem sys(world, cfg);
    HistoryRecorder hist(world);
    FaultPlan plan(world, sys);
    const std::vector<NodeId> ids = sys.replica_ids();
    plan.crash_at(3 * kSecond, ids[0]);
    plan.restart_at(10 * kSecond, ids[0]);
    plan.partition_nodes_at(4 * kSecond, {ids[3]}, {ids[1], ids[2]}, 4 * kSecond);

    std::vector<std::unique_ptr<SpiderClient>> clients;
    clients.push_back(sys.make_client(Site{Region::Virginia, 1}));
    clients.push_back(sys.make_client(Site{Region::Tokyo, 1}));
    std::vector<chaos::ClientHandle> handles;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      handles.push_back(chaos::ClientHandle::wrap(hist, *clients[i], i));
    }
    run_workload(world, std::move(handles), hist, 16 * kSecond);
    Roles roles;
    add_roles(roles, ids, wire::To::Bft);
    decode_all(rw.recorder, roles, dec);
  }

  // The HFT baseline: clients at two sites, the leader site's and another.
  {
    RecordedWorld rw(24);
    World& world = rw.world;
    HftSystem sys(world, HftConfig{});
    HistoryRecorder hist(world);
    std::vector<std::unique_ptr<SpiderClient>> clients;
    clients.push_back(sys.make_client(Site{Region::Virginia, 1}));
    clients.push_back(sys.make_client(Site{Region::Tokyo, 1}));
    std::vector<chaos::ClientHandle> handles;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      handles.push_back(chaos::ClientHandle::wrap(hist, *clients[i], i));
    }
    run_workload(world, std::move(handles), hist, 16 * kSecond);
    Roles roles;
    for (std::uint32_t site = 0; site < sys.site_count(); ++site) {
      for (std::uint32_t i = 0; i < 3 * HftConfig{}.f + 1; ++i) {
        roles.emplace(sys.replica(site, i).id(), wire::To::Hft);
      }
    }
    decode_all(rw.recorder, roles, dec);
  }

  // Two shards and one live migration; a client still routing on the old
  // map is redirected with the new one. Then one MGet, MPut and Size each,
  // and an execution replica that misses enough writes to restart from a
  // checkpoint, which carries the shard tail.
  {
    RecordedWorld rw(23);
    World& world = rw.world;
    ShardedTopology topo;
    topo.shards = 2;
    topo.base = small_core();
    topo.base.exec_regions = {Region::Virginia};
    topo.resharding = true;
    ShardedSpiderSystem sys(world, topo);
    auto client = sys.make_client(Site{Region::Virginia, 0});
    const std::string key = "moved";
    ASSERT_TRUE(drive::blocking_write(world, *client, key, "v").ok);
    bool done = false;
    sys.migrate_key_range(key, 1 - sys.shard_map().shard_of(key), [&done](bool ok) {
      EXPECT_TRUE(ok);
      done = true;
    });
    ASSERT_TRUE(drive::run_until(world, [&] { return done; }));
    EXPECT_EQ(to_string(drive::blocking_strong_read(world, *client, key).value), "v");
    EXPECT_GE(client->redirects(), 1u);

    int multi = 0;
    client->mput({{"a", to_bytes(std::string("1"))}, {"b", to_bytes(std::string("2"))}},
                 [&](ShardedClient::MputResult r, Duration) {
                   EXPECT_TRUE(r.ok);
                   ++multi;
                 });
    client->mget({"a", "b", "absent"}, [&](std::vector<ShardedClient::MgetEntry>, Duration) {
      ++multi;
    });
    client->size([&](std::uint64_t, Duration) { ++multi; });
    ASSERT_TRUE(drive::run_until(world, [&] { return multi == 3; }));

    // The gaining shard: after the move it owns the whole key space.
    const std::uint32_t shard = sys.shard_map().shard_of(key);
    SpiderSystem& core = sys.core(shard);
    const NodeId down = core.exec(core.group_ids().front(), 2).id();
    ASSERT_TRUE(sys.crash_node(down));
    for (int i = 0, written = 0; written < 40; ++i) {
      const std::string k = "k" + std::to_string(i);
      if (sys.shard_map().shard_of(k) != shard) continue;
      ASSERT_TRUE(drive::blocking_write(world, *client, k, "x").ok);
      ++written;
    }
    ASSERT_TRUE(sys.restart_node(down));
    world.run_for(3 * kSecond);

    Roles roles;
    for (std::uint32_t s = 0; s < topo.shards; ++s) {
      for (const auto& [n, role] : spider_roles(sys.core(s))) roles.emplace(n, role);
    }
    decode_all(rw.recorder, roles, dec);
  }

  EXPECT_EQ(dec.failed, 0u) << (dec.failures.empty() ? "" : dec.failures.front());
  for (const std::string& f : dec.failures) ADD_FAILURE() << f;
  for (const wire::Sample& s : wire::samples()) {
    if (s.name == "irmc.CertificateView") continue;  // irmc.Certificate's field list
    EXPECT_GT(dec.seen[s.name], 0u) << s.name << " never appeared on the wire";
  }
}

}  // namespace
}  // namespace spider
