// Live range migration under traffic (ISSUE 6 tentpole).
//
// A migration is two ordered admin commands: MigrateOut cuts the range at
// the losing shard and certifies its state with the reply quorum, MigrateIn
// absorbs it at the gaining shard. From the cut onwards replicas answer
// foreign keys with versioned WrongShard redirects, which routers adopt
// before re-routing — including cancelling ops already parked in a
// subclient's retransmit loop (the stale-routing bug this PR fixes).
//
// The suite covers: a fault-free migration moving values and shard
// attribution; the stale-routing regression (an op retrying against a
// partitioned losing shard must complete after adopt_map); the weak-read
// retransmit backoff regression; MGET/MPUT fan-out racing a map bump; the
// router's re-route bookkeeping (a SIZE across an adoption, exact re-route
// counts for queued and parked ops); and a seed-swept chaos run (crashes,
// partitions, Byzantine windows) with a migration mid-schedule, checked for
// per-key linearizability and byte-identical seed replay.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "check/linearizer.hpp"
#include "shard/sharded_system.hpp"
#include "sim/fault_plan.hpp"
#include "sim/world.hpp"
#include "tests/support/chaos.hpp"
#include "tests/support/drive.hpp"

namespace spider {
namespace {

SpiderTopology reshard_core() {
  SpiderTopology t;
  t.exec_regions = {Region::Virginia};
  t.ka = 8;
  t.ke = 8;
  t.ag_win = 32;
  t.commit_capacity = 16;
  t.client_retry = kSecond;
  t.request_timeout = kSecond;
  t.view_change_timeout = 2 * kSecond;
  return t;
}

ShardedTopology reshard_topo(std::uint32_t shards) {
  ShardedTopology t;
  t.shards = shards;
  t.base = reshard_core();
  t.resharding = true;
  return t;
}

/// Starts a whole-range migration for `key` and drives until its done
/// callback fires; returns the callback's verdict.
bool run_migration(World& world, ShardedSpiderSystem& sys, const std::string& key,
                   std::uint32_t to_shard, Duration timeout = 60 * kSecond) {
  auto done = std::make_shared<int>(-1);
  sys.migrate_key_range(key, to_shard, [done](bool ok) { *done = ok ? 1 : 0; });
  drive::run_until(world, [&] { return *done != -1; }, timeout);
  return *done == 1;
}

// ---------------------------------------------------------------- fault-free

TEST(Reshard, LiveMigrationMovesRangeAndValues) {
  World world(3);
  ShardedSpiderSystem sys(world, reshard_topo(4));
  auto client = sys.make_client(Site{Region::Virginia, 0});
  HistoryRecorder hist(world);

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("mig-" + std::to_string(i));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    recorded_routed(hist, *client, 0, HistOp::Put, keys[i], "v" + std::to_string(i));
  }
  ASSERT_TRUE(drive::run_until(world, [&] { return hist.pending_count() == 0; }));

  // Pre-migration attribution matches the v1 table.
  const ShardMap before = sys.shard_map();
  for (const RecordedOp& op : hist.ops()) {
    EXPECT_EQ(op.shard, before.shard_of(op.key)) << op.key;
  }

  const std::string moved_key = keys.front();
  const std::uint32_t owner = before.shard_of(moved_key);
  const std::uint32_t target = (owner + 1) % sys.shard_count();
  ASSERT_TRUE(run_migration(world, sys, moved_key, target));
  EXPECT_EQ(sys.migrations_completed(), 1u);
  EXPECT_GT(sys.last_migration_pause(), 0);
  EXPECT_EQ(sys.shard_map().version(), 2u);
  EXPECT_EQ(sys.shard_map().shard_of(moved_key), target);

  // The pre-migration client still routes on the v1 table; redirect chasing
  // must complete every read and attribute it to the post-migration owner.
  EXPECT_EQ(client->map().version(), 1u);
  const std::size_t writes = hist.ops().size();
  for (const std::string& k : keys) recorded_routed(hist, *client, 1, HistOp::StrongGet, k);
  ASSERT_TRUE(drive::run_until(world, [&] { return hist.pending_count() == 0; }));

  const ShardMap& after = sys.shard_map();
  bool any_moved = false;
  for (std::size_t i = writes; i < hist.ops().size(); ++i) {
    const RecordedOp& op = hist.ops()[i];
    EXPECT_TRUE(op.ok) << op.key;
    EXPECT_EQ(to_string(op.result), "v" + op.key.substr(4)) << op.key;
    EXPECT_EQ(op.shard, after.shard_of(op.key)) << op.key;
    if (op.shard != before.shard_of(op.key)) any_moved = true;
  }
  EXPECT_TRUE(any_moved);  // the pool always hits the moved range (mig-0 did)
  EXPECT_GE(client->redirects(), 1u);
  EXPECT_EQ(client->maps_adopted(), 1u);
  EXPECT_EQ(client->map().version(), 2u);

  // No key was lost or duplicated by the cut/absorb pair.
  auto total = std::make_shared<std::uint64_t>(~0ull);
  client->size([total](std::uint64_t n, Duration) { *total = n; });
  ASSERT_TRUE(drive::run_until(world, [&] { return *total != ~0ull; }));
  EXPECT_EQ(*total, keys.size());
}

TEST(Reshard, MigrationRequiresReshardingTopology) {
  World world(1);
  ShardedTopology topo = reshard_topo(2);
  topo.resharding = false;
  ShardedSpiderSystem sys(world, topo);
  EXPECT_THROW(sys.migrate_key_range("k", 1, {}), std::logic_error);
}

TEST(Reshard, MigrationRejectsUnknownTargetAndOverlappingCalls) {
  World world(1);
  ShardedSpiderSystem sys(world, reshard_topo(2));
  EXPECT_THROW(sys.migrate_key_range("k", 7, {}), std::invalid_argument);

  const std::uint32_t owner = sys.shard_map().shard_of("k");
  sys.migrate_key_range("k", 1 - owner, {});
  EXPECT_TRUE(sys.migration_in_flight());
  EXPECT_THROW(sys.migrate_key_range("k", 1 - owner, {}), std::logic_error);
  drive::run_until(world, [&] { return !sys.migration_in_flight(); });
  EXPECT_EQ(sys.migrations_completed(), 1u);
}

// ------------------------------------------------- stale-routing regression

// The bug: a router op whose shard stops owning its key mid-flight used to
// retransmit against that shard forever — adopt_map updated the table but
// never touched ops already queued in a subclient. Staged deterministically:
// the client's link to the losing shard is cut, so its put can ONLY complete
// by being cancelled and re-routed to the gaining shard after adopt_map.
TEST(Reshard, StaleRoutingReroutesOnAdoptMap) {
  World world(5);
  ShardedSpiderSystem sys(world, reshard_topo(2));
  auto client = sys.make_client(Site{Region::Virginia, 0});

  const std::string key = "stale-key";
  const std::uint32_t owner = sys.shard_map().shard_of(key);
  const std::uint32_t target = 1 - owner;

  // Cut this client's subclient off from the losing shard's execution
  // group, both directions. The admin clients are separate nodes and keep
  // working, so the migration itself is unaffected.
  const NodeId sub = client->shard_client(owner).id();
  const std::vector<NodeId> members = client->shard_client(owner).group().members;
  world.net().set_link_filter([sub, members](NodeId from, NodeId to) {
    for (NodeId m : members) {
      if ((from == sub && to == m) || (from == m && to == sub)) return false;
    }
    return true;
  });

  auto out = std::make_shared<drive::KvOutcome>();
  client->put(key, to_bytes(std::string("rerouted")), [out](Bytes reply, Duration lat) {
    KvReply r = kv_decode_reply(reply);
    out->done = true;
    out->ok = r.ok;
    out->latency = lat;
  });
  world.run_until(world.now() + 5 * kSecond);
  ASSERT_FALSE(out->done);  // stuck: the op only retransmits into the cut link
  ASSERT_EQ(client->pending_ops(), 1u);

  ASSERT_TRUE(run_migration(world, sys, key, target));
  ASSERT_TRUE(client->adopt_map(sys.shard_map()));

  // With the fix the pending op is cancelled off the dead subclient and
  // re-submitted to the gaining shard; the link stays cut, so completion is
  // proof of the re-route (before the fix this times out).
  ASSERT_TRUE(drive::run_until(world, [&] { return out->done; }, 30 * kSecond));
  EXPECT_TRUE(out->ok);
  EXPECT_GE(client->reroutes(), 1u);

  world.net().set_link_filter(nullptr);
  drive::KvOutcome read = drive::blocking_strong_read(world, *client, key);
  ASSERT_TRUE(read.done);
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(to_string(read.value), "rerouted");
}

// The weak-read twin: cancel-and-reroute must take ops off the direct lane
// too. The client's link to the losing shard is cut, so the weak read can
// only complete by being cancelled and re-routed after adopt_map.
TEST(Reshard, StaleWeakReadReroutesOnAdoptMap) {
  World world(5);
  ShardedSpiderSystem sys(world, reshard_topo(2));
  auto client = sys.make_client(Site{Region::Virginia, 0});

  const std::string key = "stale-key";
  ASSERT_TRUE(drive::blocking_write(world, *client, key, "before").ok);
  const std::uint32_t owner = sys.shard_map().shard_of(key);
  const std::uint32_t target = 1 - owner;

  const NodeId sub = client->shard_client(owner).id();
  const std::vector<NodeId> members = client->shard_client(owner).group().members;
  world.net().set_link_filter([sub, members](NodeId from, NodeId to) {
    for (NodeId m : members) {
      if ((from == sub && to == m) || (from == m && to == sub)) return false;
    }
    return true;
  });

  auto out = std::make_shared<drive::KvOutcome>();
  client->weak_get(key, [out](Bytes reply, Duration) {
    KvReply r = kv_decode_reply(reply);
    out->done = true;
    out->ok = r.ok;
    out->value = std::move(r.value);
  });
  world.run_until(world.now() + 5 * kSecond);
  ASSERT_FALSE(out->done);  // stuck: the read only retransmits into the cut link
  ASSERT_EQ(client->pending_ops(), 1u);

  ASSERT_TRUE(run_migration(world, sys, key, target));
  ASSERT_TRUE(client->adopt_map(sys.shard_map()));

  ASSERT_TRUE(drive::run_until(world, [&] { return out->done; }, 30 * kSecond));
  EXPECT_TRUE(out->ok);
  EXPECT_EQ(to_string(out->value), "before");
  EXPECT_GE(client->reroutes(), 1u);
}

// ---------------------------------------------- weak-read backoff regression

// The bug: the direct-path retransmit loop re-armed at the constant base
// interval, so a partitioned client hammered its execution group ~once per
// base interval for the whole outage. With capped exponential backoff
// (1+2+4+8+8+... seconds here) a 60-second outage sees ~9 retransmits, not
// ~50; the upper bound below fails against the constant-interval code.
TEST(Reshard, WeakReadRetransmitBacksOffUnderPartition) {
  World world(9);
  ShardedSpiderSystem sys(world, reshard_topo(2));
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(drive::blocking_write(world, *client, "wk", "v0").ok);

  const std::uint32_t owner = sys.shard_map().shard_of("wk");
  const NodeId sub = client->shard_client(owner).id();
  world.net().set_link_filter([sub](NodeId from, NodeId to) {
    return from != sub && to != sub;
  });

  const std::uint64_t before = client->retries();
  auto out = std::make_shared<drive::KvOutcome>();
  client->weak_get("wk", [out](Bytes reply, Duration) {
    KvReply r = kv_decode_reply(reply);
    out->done = true;
    out->ok = r.ok;
    out->value = std::move(r.value);
  });
  world.run_until(world.now() + 60 * kSecond);
  ASSERT_FALSE(out->done);
  const std::uint64_t during = client->retries() - before;
  EXPECT_GE(during, 4u);   // the retransmit loop genuinely ran
  EXPECT_LE(during, 12u);  // constant-interval code produces ~50 here

  // The capped interval keeps reprobing: healing the partition completes
  // the read within one backoff ceiling.
  world.net().set_link_filter(nullptr);
  ASSERT_TRUE(drive::run_until(world, [&] { return out->done; }, 20 * kSecond));
  EXPECT_TRUE(out->ok);
  EXPECT_EQ(to_string(out->value), "v0");
}

// ------------------------------------------------ fan-out racing a map bump

// Sequential MPUT(all keys) -> MGET(all keys) rounds with a migration fired
// mid-run: map adoption lands before, between, and after per-shard parts
// depending on the round. Every round must read its own writes on every key
// regardless of which side of the cut served it, and attribution must track
// the table in force at completion.
TEST(Reshard, MgetMputFanOutSurvivesMapBump) {
  World world(11);
  ShardedSpiderSystem sys(world, reshard_topo(4));
  auto client = sys.make_client(Site{Region::Virginia, 0});

  const std::vector<std::string> keys = chaos::key_pool(6);
  const std::uint32_t owner = sys.shard_map().shard_of(keys[0]);
  const std::uint32_t target = (owner + 1) % sys.shard_count();

  auto migration_ok = std::make_shared<int>(-1);
  world.queue().schedule_at(4 * kSecond, [&sys, &keys, target, migration_ok] {
    sys.migrate_key_range(keys[0], target,
                          [migration_ok](bool ok) { *migration_ok = ok ? 1 : 0; });
  });

  constexpr int kRounds = 16;
  auto rounds_done = std::make_shared<int>(0);
  auto round_errors = std::make_shared<std::string>();
  // Each round chains mput -> mget -> next round off the event queue. The
  // recursion captures a raw pointer to the function object (owned by this
  // scope, which outlives every round) — capturing the shared_ptr would
  // make the closure own itself and leak.
  auto run_round = std::make_shared<std::function<void(int)>>();
  std::function<void(int)>* const run = run_round.get();
  *run_round = [&, rounds_done, round_errors, run](int n) {
    std::vector<std::pair<std::string, Bytes>> pairs;
    for (const std::string& k : keys) pairs.emplace_back(k, to_bytes("r" + std::to_string(n)));
    client->mput(pairs, [&, n, rounds_done, round_errors, run](
                            ShardedClient::MputResult res, Duration) {
      if (!res.ok) *round_errors += "round " + std::to_string(n) + ": mput failed; ";
      client->mget(keys, [&, n, rounds_done, round_errors, run](
                             std::vector<ShardedClient::MgetEntry> entries, Duration) {
        for (const ShardedClient::MgetEntry& e : entries) {
          if (!e.ok || to_string(e.value) != "r" + std::to_string(n)) {
            *round_errors += "round " + std::to_string(n) + ": " + e.key +
                             " read '" + to_string(e.value) + "'; ";
          }
          if (e.shard >= 4) {
            *round_errors += "round " + std::to_string(n) + ": " + e.key +
                             " attributed to shard " + std::to_string(e.shard) + "; ";
          }
        }
        ++*rounds_done;
        // Pace rounds so the 16-round run spans the t=4s migration: some
        // rounds complete wholly before the cut, some race it, some run
        // entirely on the new table.
        if (n + 1 < kRounds) {
          world.queue().schedule_at(world.now() + 600 * kMillisecond,
                                    [run, n] { (*run)(n + 1); });
        }
      });
    });
  };
  (*run_round)(0);

  ASSERT_TRUE(drive::run_until(
      world, [&] { return *rounds_done == kRounds && *migration_ok != -1; },
      300 * kSecond));
  EXPECT_EQ(*round_errors, "") << *round_errors;
  EXPECT_EQ(*migration_ok, 1);
  EXPECT_EQ(sys.migrations_completed(), 1u);
  EXPECT_GE(client->maps_adopted(), 1u);  // picked up organically via redirect
  EXPECT_EQ(client->map().version(), 2u);

  // Post-migration attribution matches the final table on every key.
  auto final_entries = std::make_shared<std::vector<ShardedClient::MgetEntry>>();
  auto final_done = std::make_shared<bool>(false);
  client->mget(keys, [final_entries, final_done](
                         std::vector<ShardedClient::MgetEntry> entries, Duration) {
    *final_entries = std::move(entries);
    *final_done = true;
  });
  ASSERT_TRUE(drive::run_until(world, [&] { return *final_done; }));
  for (const ShardedClient::MgetEntry& e : *final_entries) {
    EXPECT_EQ(e.shard, sys.shard_map().shard_of(e.key)) << e.key;
  }
}

// ---------------------------------------------------- re-route bookkeeping

/// `base`'s layout at `version`; `swap` flips a two-shard table's owners.
ShardMap relabeled(const ShardMap& base, std::uint64_t version, bool swap) {
  std::vector<ShardRange> ranges = base.ranges();
  if (swap) {
    for (ShardRange& r : ranges) r.shard = 1 - r.shard;
  }
  ShardMap out = base;
  out.set_ranges(std::move(ranges), version);
  return out;
}

// A SIZE in flight when adopt_map re-routes: its keyless parts are
// re-routed like every other record, each staying on its shard, and the
// merged total fires exactly once.
TEST(Reshard, SizeSurvivesMapBump) {
  World world(13);
  ShardedSpiderSystem sys(world, reshard_topo(4));
  auto client = sys.make_client(Site{Region::Virginia, 0});
  const std::vector<std::string> keys = chaos::key_pool(6);
  for (const std::string& k : keys) ASSERT_TRUE(drive::blocking_write(world, *client, k, "v").ok);

  auto calls = std::make_shared<int>(0);
  auto total = std::make_shared<std::uint64_t>(0);
  client->size([calls, total](std::uint64_t n, Duration) {
    ++*calls;
    *total = n;
  });
  ASSERT_EQ(client->pending_ops(), sys.shard_count());  // one part per shard

  ASSERT_TRUE(client->adopt_map(relabeled(client->map(), 2, /*swap=*/false)));
  EXPECT_EQ(client->reroutes(), sys.shard_count());

  ASSERT_TRUE(drive::run_until(world, [&] { return *calls > 0; }));
  world.run_for(10 * kSecond);  // replies to the cancelled transmissions change nothing
  EXPECT_EQ(*calls, 1);
  EXPECT_EQ(*total, keys.size());
  EXPECT_EQ(client->pending_ops(), 0u);
}

// One adoption re-routes exactly the records queued on subclients plus the
// one parked on a stale redirect, each once, and every callback fires once.
// Staged on two shards: the router first adopts a table with the owners
// swapped (version 2), so a put of a key shard 0 really owns goes to shard
// 1, whose replicas redirect with their version-1 table and the router
// parks it. Three ops on shard-1 keys go to shard 0 instead, over a link
// that is cut, so they stay queued. Adopting the true layout at version 3
// re-routes all four.
TEST(Reshard, AdoptionReroutesEachQueuedAndParkedRecordOnce) {
  World world(7);
  ShardedSpiderSystem sys(world, reshard_topo(2));
  auto client = sys.make_client(Site{Region::Virginia, 0});
  const ShardMap truth = client->map();
  ASSERT_TRUE(client->adopt_map(relabeled(truth, 2, /*swap=*/true)));

  std::vector<std::string> owned_by_1;
  std::string owned_by_0;
  for (int i = 0; owned_by_1.size() < 3 || owned_by_0.empty(); ++i) {
    const std::string k = "q" + std::to_string(i);
    if (truth.shard_of(k) == 1 && owned_by_1.size() < 3) owned_by_1.push_back(k);
    if (truth.shard_of(k) == 0 && owned_by_0.empty()) owned_by_0 = k;
  }

  const NodeId sub = client->shard_client(0).id();
  const std::vector<NodeId> members = client->shard_client(0).group().members;
  world.net().set_link_filter([sub, members](NodeId from, NodeId to) {
    for (NodeId m : members) {
      if ((from == sub && to == m) || (from == m && to == sub)) return false;
    }
    return true;
  });

  auto calls = std::make_shared<std::vector<int>>(4, 0);
  auto oks = std::make_shared<std::vector<bool>>(4, false);
  auto record = [calls, oks](std::size_t i) {
    return [calls, oks, i](Bytes reply, Duration) {
      ++(*calls)[i];
      (*oks)[i] = kv_decode_reply(reply).ok;
    };
  };
  client->put(owned_by_0, to_bytes(std::string("parked")), record(0));
  client->put(owned_by_1[0], to_bytes(std::string("a")), record(1));
  client->put(owned_by_1[1], to_bytes(std::string("b")), record(2));
  client->weak_get(owned_by_1[2], record(3));  // queued on the direct lane

  ASSERT_TRUE(drive::run_until(world, [&] { return client->redirects() == 1; }));
  ASSERT_EQ(client->pending_ops(), 4u);
  ASSERT_EQ(client->reroutes(), 0u);
  ASSERT_TRUE(client->adopt_map(relabeled(truth, 3, /*swap=*/false)));
  EXPECT_EQ(client->reroutes(), 4u);  // three queued + one parked

  // The re-routed queued ops reach shard 1; the parked put now waits on the
  // cut link to shard 0 until it heals.
  ASSERT_TRUE(drive::run_until(world, [&] { return client->pending_ops() == 1; }));
  world.net().set_link_filter(nullptr);
  ASSERT_TRUE(drive::run_until(world, [&] { return client->pending_ops() == 0; }));
  world.run_for(10 * kSecond);
  EXPECT_EQ(*calls, std::vector<int>(4, 1));
  EXPECT_TRUE((*oks)[0] && (*oks)[1] && (*oks)[2]);  // the weak get may miss its key
  EXPECT_EQ(client->reroutes(), 4u);
  EXPECT_EQ(client->redirects(), 1u);
  EXPECT_EQ(drive::blocking_strong_read(world, *client, owned_by_0).value,
            to_bytes(std::string("parked")));
}

// ------------------------------------------------------------- chaos sweep

struct ReshardChaosOutcome {
  bool completed = false;
  std::size_t pending = 0;
  std::size_t total_ops = 0;
  LinResult lin;
  bool no_lost_writes = true;
  std::string lost_diag;
  int migration_ok = -1;  // -1: never finished
  std::uint64_t migrations = 0;
  std::string fault_script;
  std::string history_dump;
  Bytes history;
};

/// One chaos scenario: 4 resharding shards, randomized crashes + partitions
/// + Byzantine windows from the seed, three recording routed clients, and a
/// whole-range migration fired mid-schedule. All clients route on the v1
/// table at the moment of the cut, so every completion on the moved range
/// after it exercises redirect adoption and re-routing.
ReshardChaosOutcome run_reshard_chaos(std::uint64_t seed) {
  World world(seed);
  HistoryRecorder hist(world);
  ShardedSpiderSystem sys(world, reshard_topo(4));
  FaultPlan plan(world, sys);

  std::vector<std::unique_ptr<ShardedClient>> clients;
  clients.push_back(sys.make_client(Site{Region::Virginia, 0}));
  clients.push_back(sys.make_client(Site{Region::Virginia, 1}));
  clients.push_back(sys.make_client(Site{Region::Virginia, 2}));

  FaultPlan::ChaosProfile profile;
  profile.start = 2 * kSecond;
  profile.horizon = 18 * kSecond;
  profile.actions = 5;
  profile.byz_actions = 4;
  plan.randomize(profile);

  const std::vector<std::string> keys = chaos::key_pool(6);
  chaos::WorkloadOptions opt;
  opt.ops_per_client = 10;
  opt.mean_gap = 900 * kMillisecond;
  std::vector<chaos::ClientHandle> handles;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    handles.push_back(chaos::ClientHandle::wrap_routed(hist, *clients[i], i));
  }
  chaos::schedule_workload(world, handles, keys, opt);

  // Fire the migration mid-chaos, at a fixed sim time so replay stays a
  // pure function of the seed.
  ReshardChaosOutcome out;
  const std::uint32_t owner = sys.shard_map().shard_of(keys[0]);
  const std::uint32_t target = (owner + 1) % sys.shard_count();
  world.queue().schedule_at(6 * kSecond, [&sys, &keys, &out, target] {
    sys.migrate_key_range(keys[0], target,
                          [&out](bool ok) { out.migration_ok = ok ? 1 : 0; });
  });

  out.fault_script = plan.describe();
  world.run_until(profile.horizon + kSecond);
  drive::run_until(
      world, [&] { return hist.pending_count() == 0 && out.migration_ok != -1; },
      150 * kSecond);

  chaos::ClientHandle reader = chaos::ClientHandle::wrap_routed(hist, *clients[0], 99);
  for (const std::string& k : keys) reader.strong_get(k);
  drive::run_until(world, [&] { return hist.pending_count() == 0; }, 60 * kSecond);

  out.pending = hist.pending_count();
  out.completed = out.pending == 0;
  out.total_ops = hist.ops().size();
  out.lin = check_kv_history(hist);
  out.migrations = sys.migrations_completed();

  // No acknowledged write may be lost across the cut: a key with an acked
  // put must be found by its final strong read, and any value read must
  // have been written (re-routing is at-least-once, never value-inventing).
  const auto& ops = hist.ops();
  for (const std::string& k : keys) {
    bool acked_put = false;
    for (const RecordedOp& op : ops) {
      if (op.kind == HistOp::Put && op.key == k && op.responded) acked_put = true;
    }
    const RecordedOp* final_read = nullptr;
    for (const RecordedOp& op : ops) {
      if (op.client == 99 && op.key == k) final_read = &op;
    }
    if (final_read == nullptr || !final_read->responded) continue;
    if (acked_put && !final_read->ok) {
      out.no_lost_writes = false;
      out.lost_diag += "key " + k + ": acked put but final read missed; ";
    }
    if (final_read->ok) {
      bool written = false;
      for (const RecordedOp& op : ops) {
        if (op.kind == HistOp::Put && op.key == k && op.arg == final_read->result) written = true;
      }
      if (!written) {
        out.no_lost_writes = false;
        out.lost_diag += "key " + k + ": final read returned a never-written value; ";
      }
    }
  }

  out.history_dump = hist.dump();
  out.history = hist.serialize();
  return out;
}

class ReshardChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReshardChaosSweep, MigrationUnderChaosStaysLinearizable) {
  const std::uint64_t seed = GetParam();
  ReshardChaosOutcome out = run_reshard_chaos(seed);
  const bool failed = !out.completed || !out.lin.ok || !out.no_lost_writes ||
                      out.migration_ok != 1 || out.migrations != 1;
  if (failed) {
    std::string path = "chaos_failure_reshard_seed" + std::to_string(seed) + ".txt";
    std::ofstream f(path);
    f << "seed: " << seed << "\nmigration_ok: " << out.migration_ok
      << "\nlinearizable: " << out.lin.ok << " " << out.lin.error
      << "\nlost-writes: " << out.lost_diag << "\n\n== fault schedule ==\n"
      << out.fault_script << "\n== recorded history ==\n"
      << out.history_dump;
    ADD_FAILURE() << "reshard chaos scenario failed; artifact written to " << path
                  << " — reproduce with seed=" << seed;
  }
  EXPECT_TRUE(out.completed) << out.pending << " of " << out.total_ops << " ops never completed";
  EXPECT_TRUE(out.lin.ok) << out.lin.error;
  EXPECT_TRUE(out.no_lost_writes) << out.lost_diag;
  EXPECT_EQ(out.migration_ok, 1);
  EXPECT_EQ(out.migrations, 1u);
}

INSTANTIATE_TEST_SUITE_P(Reshard, ReshardChaosSweep, ::testing::Range<std::uint64_t>(1, 11),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

TEST(ReshardDeterminism, SeedReplayIsByteIdentical) {
  ReshardChaosOutcome a = run_reshard_chaos(4);
  ReshardChaosOutcome b = run_reshard_chaos(4);
  EXPECT_EQ(a.fault_script, b.fault_script);
  EXPECT_EQ(a.history, b.history);
  EXPECT_FALSE(a.history.empty());

  ReshardChaosOutcome c = run_reshard_chaos(6);
  EXPECT_NE(c.history, a.history);
}

}  // namespace
}  // namespace spider
