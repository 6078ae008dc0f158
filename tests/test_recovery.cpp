// Crash-restart recovery regressions (paper §3.4/§3.7 + crash-recovery
// extension): a partitioned leader mid-batch, a destroyed-and-rebuilt
// execution replica recovering through fetch_cp, a restarted agreement
// replica rejoining its view, a restarted PBFT-baseline replica, Byzantine
// primaries (muted / equivocating) that must trigger a view change and
// commit exactly once, restarted replicas that resume their Byzantine
// flags, and the scripted crash/partition/restart acceptance scenario with
// byte-identical seed replay.
#include <gtest/gtest.h>

#include "baselines/bft_system.hpp"
#include "check/linearizer.hpp"
#include "sim/fault_plan.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"
#include "tests/support/chaos.hpp"
#include "tests/support/drive.hpp"

namespace spider {
namespace {

SpiderTopology topo_small() {
  SpiderTopology t;
  t.exec_regions = {Region::Virginia, Region::Tokyo};
  t.ka = 8;
  t.ke = 8;
  t.ag_win = 32;
  t.commit_capacity = 16;
  t.client_retry = kSecond;
  t.request_timeout = kSecond;
  t.view_change_timeout = 2 * kSecond;
  return t;
}

TEST(Recovery, LeaderPartitionedMidBatchCommitsExactlyOnce) {
  World world(11);
  SpiderTopology topo = topo_small();
  topo.max_batch = 4;
  topo.batch_delay = 50 * kMillisecond;
  SpiderSystem sys(world, topo);
  HistoryRecorder hist(world);

  GroupId va = sys.nearest_group(Region::Virginia);
  SeqNr seq_before = sys.exec(va, 0).executed_seq();

  // Four concurrent writers fill one batch; the leader gets cut off from
  // its peers while the instance is in flight.
  std::vector<std::unique_ptr<SpiderClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(sys.make_client(Site{Region::Virginia, 0}));
    recorded(hist, *clients.back(), i, HistOp::Put, "k" + std::to_string(i),
             "v" + std::to_string(i));
  }

  FaultPlan plan(world);
  std::vector<NodeId> leader = {sys.agreement(0).id()};
  std::vector<NodeId> others;
  for (std::size_t i = 1; i < sys.agreement_size(); ++i) others.push_back(sys.agreement(i).id());
  // 1ms: the requests are inside the client -> execution -> request-channel
  // -> consensus pipeline (an intra-region commit takes ~2-3ms end to end),
  // so the leader is cut off with the batch in flight, never completed.
  plan.partition_nodes_at(world.now() + kMillisecond, leader, others);

  bool all_done = drive::run_until(
      world, [&] { return hist.pending_count() == 0; }, 60 * kSecond);
  EXPECT_TRUE(all_done) << hist.dump();

  // The in-flight batch was carried through the view change and committed
  // exactly once: every write acked, history linearizable, and all four
  // values present under a strong read.
  EXPECT_GT(sys.agreement(1).consensus().view(), 0u);
  for (int i = 0; i < 4; ++i) {
    drive::KvOutcome r =
        drive::blocking_strong_read(world, *clients[0], "k" + std::to_string(i));
    EXPECT_TRUE(r.ok) << "k" << i;
    EXPECT_EQ(to_string(r.value), "v" + std::to_string(i));
  }
  LinResult lin = check_kv_history(hist);
  EXPECT_TRUE(lin.ok) << lin.error << "\n" << hist.dump();

  // No residual re-proposals: one more write consumes exactly one slot.
  world.run_for(2 * kSecond);
  SeqNr before_extra = sys.exec(va, 0).executed_seq();
  EXPECT_TRUE(drive::blocking_write(world, *clients[0], "extra", "x").ok);
  EXPECT_EQ(sys.exec(va, 0).executed_seq(), before_extra + 1);
  EXPECT_GE(before_extra, seq_before + 4 + 4);  // 4 writes + 4 strong reads
}

TEST(Recovery, CrashedExecReplicaRecoversViaFetchCpAndServesWeakReads) {
  World world(12);
  SpiderSystem sys(world, topo_small());
  auto client = sys.make_client(Site{Region::Virginia, 0});
  GroupId g = client->group().group;
  NodeId victim = sys.exec(g, 2).id();

  ASSERT_TRUE(drive::blocking_write(world, *client, "warm", "1").ok);

  // Crash = the process is DESTROYED: app state, reply cache, IRMC
  // endpoint state and timers are gone (not just unreachable).
  ASSERT_TRUE(sys.crash_node(victim));
  EXPECT_TRUE(sys.is_crashed(victim));

  // Enough writes that the commit-channel window (capacity 16) moves past
  // everything the victim missed: replay is impossible, only an execution
  // checkpoint can bring it back.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(drive::blocking_write(world, *client, "burst" + std::to_string(i), "x").ok);
  }
  SeqNr healthy = sys.exec(g, 0).executed_seq();

  ASSERT_TRUE(sys.restart_node(victim));
  EXPECT_FALSE(sys.is_crashed(victim));
  ExecutionReplica& revived = sys.exec(g, 2);
  EXPECT_EQ(revived.executed_seq(), 0u);  // fresh process, empty state

  bool caught_up = drive::run_until(
      world, [&] { return revived.executed_seq() >= healthy; }, 30 * kSecond);
  EXPECT_TRUE(caught_up) << "revived replica stuck at seq " << revived.executed_seq()
                         << " (healthy: " << healthy << ")";
  EXPECT_GE(revived.catchups(), 1u);  // provably via checkpoint state transfer

  // The revived replica serves correct weak reads from recovered state...
  KvReply local = kv_decode_reply(revived.app().execute_weak(kv_get("burst29")));
  EXPECT_TRUE(local.ok);
  EXPECT_EQ(to_string(local.value), "x");
  // ...and end-to-end weak reads (which need fe+1 matching replies
  // including possibly the revived one) still work.
  drive::KvOutcome weak = drive::blocking_weak_read(world, *client, "warm");
  EXPECT_TRUE(weak.ok);
  EXPECT_EQ(to_string(weak.value), "1");
}

TEST(Recovery, RestartedAgreementReplicaRejoinsViewByEvidence) {
  World world(13);
  SpiderSystem sys(world, topo_small());
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(drive::blocking_write(world, *client, "a", "1").ok);

  // Push the group to a higher view by cutting off the view-0 leader.
  FaultPlan plan(world);
  std::vector<NodeId> leader = {sys.agreement(0).id()};
  std::vector<NodeId> rest;
  for (std::size_t i = 1; i < sys.agreement_size(); ++i) rest.push_back(sys.agreement(i).id());
  plan.partition_nodes_at(world.now(), leader, rest, /*heal_after=*/6 * kSecond);
  ASSERT_TRUE(drive::blocking_write(world, *client, "b", "2").ok);
  ViewNr group_view = sys.agreement(1).consensus().view();
  ASSERT_GT(group_view, 0u);

  // Crash-recover a follower: the fresh process boots in view 0 and must
  // rejoin the group's view from f+1 authenticated traffic.
  NodeId victim = sys.agreement(2).id();
  ASSERT_TRUE(sys.crash_node(victim));
  ASSERT_TRUE(drive::blocking_write(world, *client, "c", "3").ok);
  ASSERT_TRUE(sys.restart_node(victim));
  EXPECT_EQ(sys.agreement(2).consensus().view(), 0u);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(drive::blocking_write(world, *client, "d" + std::to_string(i), "4").ok);
  }
  world.run_for(2 * kSecond);
  EXPECT_EQ(sys.agreement(2).consensus().view(), sys.agreement(1).consensus().view());
  EXPECT_GE(sys.agreement(2).consensus().views_adopted(), 1u);
}

TEST(Recovery, RestartedBftBaselineReplicaCatchesUp) {
  World world(14);
  BftConfig cfg;
  cfg.sites = geo_replica_sites(Region::Virginia, 4);
  cfg.checkpoint_interval = 8;
  cfg.request_timeout = kSecond;
  cfg.view_change_timeout = 2 * kSecond;
  BftSystem sys(world, cfg);
  auto client = sys.make_client(Site{Region::Virginia, 0});

  ASSERT_TRUE(drive::blocking_write(world, *client, "pre", "1").ok);
  NodeId victim = sys.replica_ids()[3];
  ASSERT_TRUE(sys.crash_node(victim));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(drive::blocking_write(world, *client, "k" + std::to_string(i), "v").ok);
  }
  SeqNr healthy = sys.replica(0).executed_seq();
  ASSERT_TRUE(sys.restart_node(victim));

  // Keep a little traffic flowing so checkpoints keep being generated.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(drive::blocking_write(world, *client, "post" + std::to_string(i), "v").ok);
  }
  bool caught_up = drive::run_until(
      world, [&] { return sys.replica(3).executed_seq() >= healthy; }, 30 * kSecond);
  EXPECT_TRUE(caught_up) << "bft replica stuck at " << sys.replica(3).executed_seq()
                         << " (healthy " << healthy << ")";
  KvReply local = kv_decode_reply(sys.replica(3).app().execute_weak(kv_get("pre")));
  EXPECT_TRUE(local.ok);
}

TEST(Recovery, RestartBeforeFirstCheckpointRecoversViaOnDemandCheckpoint) {
  // The hard case for crash recovery: the replica crashes before any
  // interval checkpoint was generated AND no further client traffic
  // arrives after the restart. Without checkpoint-on-demand the fresh
  // process would fetch forever (peers have nothing stable) and stay
  // empty; with it, the recovering fetch makes f+1 quiescent peers
  // snapshot their current state.
  World world(15);
  BftConfig cfg;
  cfg.sites = geo_replica_sites(Region::Virginia, 4);
  cfg.checkpoint_interval = 64;  // far beyond this test's traffic
  BftSystem sys(world, cfg);
  auto client = sys.make_client(Site{Region::Virginia, 0});

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(drive::blocking_write(world, *client, "k" + std::to_string(i), "v").ok);
  }
  NodeId victim = sys.replica_ids()[2];
  ASSERT_TRUE(sys.crash_node(victim));
  ASSERT_TRUE(drive::blocking_write(world, *client, "while-down", "w").ok);
  SeqNr healthy = sys.replica(0).executed_seq();
  ASSERT_TRUE(sys.restart_node(victim));

  // No writes from here on: recovery must be driven by the fetch alone.
  bool caught_up = drive::run_until(
      world, [&] { return sys.replica(2).executed_seq() >= healthy; }, 30 * kSecond);
  EXPECT_TRUE(caught_up) << "stuck at " << sys.replica(2).executed_seq() << " vs " << healthy;
  KvReply local = kv_decode_reply(sys.replica(2).app().execute_weak(kv_get("while-down")));
  EXPECT_TRUE(local.ok);
  EXPECT_EQ(to_string(local.value), "w");
}

// ---------------------------------------------------------------------------
// Byzantine primaries. A muted (fail-silent, here fully isolated via
// mute_rx) or equivocating view-0 primary must trigger a view change
// within the request timeout, after which the in-flight writes commit
// exactly once — no request is lost, none executes twice.
// ---------------------------------------------------------------------------

void run_byzantine_primary_case(std::uint64_t seed, const ByzantineFlags& primary_flags,
                                SeqNr max_null_slack) {
  World world(seed);
  SpiderTopology topo = topo_small();
  SpiderSystem sys(world, topo);
  HistoryRecorder hist(world);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  GroupId va = client->group().group;

  // Warm write under an honest primary, so the Byzantine window starts
  // from a known sequence number.
  ASSERT_TRUE(drive::blocking_write(world, *client, "warm", "w").ok);
  SeqNr seq_before = sys.exec(va, 0).executed_seq();

  world.byzantine(sys.agreement(0).id()) = primary_flags;

  std::vector<std::unique_ptr<SpiderClient>> writers;
  for (int i = 0; i < 4; ++i) {
    writers.push_back(sys.make_client(Site{Region::Virginia, 0}));
    recorded(hist, *writers.back(), static_cast<std::uint64_t>(i), HistOp::Put,
             "k" + std::to_string(i), "v" + std::to_string(i));
  }

  // 30s >> request_timeout + view_change_timeout: completion inside the
  // deadline certifies the view change fired within its timeout.
  bool all_done = drive::run_until(world, [&] { return hist.pending_count() == 0; },
                                   30 * kSecond);
  EXPECT_TRUE(all_done) << hist.dump();

  // The Byzantine primary forced a view change...
  EXPECT_GT(sys.agreement(1).consensus().view(), 0u);

  // ...and every write committed exactly once: all values present, the
  // history linearizable, and the executed-sequence budget spent only on
  // the 4 writes (equivocation may burn up to `max_null_slack` null
  // instances for the contested slots — nulls consume sequence numbers
  // but execute nothing).
  for (int i = 0; i < 4; ++i) {
    drive::KvOutcome r = drive::blocking_strong_read(world, *client, "k" + std::to_string(i));
    EXPECT_TRUE(r.ok) << "k" << i;
    EXPECT_EQ(to_string(r.value), "v" + std::to_string(i));
  }
  LinResult lin = check_kv_history(hist);
  EXPECT_TRUE(lin.ok) << lin.error << "\n" << hist.dump();

  world.run_for(2 * kSecond);
  SeqNr after = sys.exec(va, 0).executed_seq();
  EXPECT_GE(after, seq_before + 4 + 4);  // 4 writes + 4 strong reads
  EXPECT_LE(after, seq_before + 4 + 4 + max_null_slack);

  // No residual re-proposals: one more write consumes exactly one slot.
  EXPECT_TRUE(drive::blocking_write(world, *client, "extra", "x").ok);
  EXPECT_EQ(sys.exec(va, 0).executed_seq(), after + 1);
}

TEST(Recovery, MutedPrimaryTriggersViewChangeAndCommitsExactlyOnce) {
  ByzantineFlags f;
  f.mute = true;
  f.mute_rx = true;  // fully isolated: neither proposes nor follows
  run_byzantine_primary_case(16, f, /*max_null_slack=*/0);
}

TEST(Recovery, EquivocatingPrimaryTriggersViewChangeAndCommitsExactlyOnce) {
  ByzantineFlags f;
  f.equivocate = true;
  // Each contested instance may be resolved as a null request before the
  // honest view re-proposes the write.
  run_byzantine_primary_case(17, f, /*max_null_slack=*/8);
}

// ---------------------------------------------------------------------------
// Byzantine flags outlive the process. A replica rebuilt by restart_node
// under the same id resumes its flags. Each case turns f+1 replicas of one
// group Byzantine, one more than the threat model allows, so a write
// stalls exactly as long as the restarted replica still misbehaves.
// ---------------------------------------------------------------------------

TEST(Recovery, RestartedExecReplicaResumesItsByzantineFlags) {
  World world(18);
  SpiderSystem sys(world, topo_small());
  auto client = sys.make_client(Site{Region::Virginia, 0});
  const GroupId g = client->group().group;
  ASSERT_TRUE(drive::blocking_write(world, *client, "warm", "w").ok);

  // fe+1 = 2 of 3 replicas drop forwarding: fs+1 = 2 forwards never meet.
  const std::vector<NodeId> byz = {sys.exec(g, 0).id(), sys.exec(g, 1).id()};
  for (NodeId n : byz) world.byzantine(n).drop_forwarding = true;
  ASSERT_TRUE(sys.crash_node(byz[0]));
  world.run_for(kSecond);
  ASSERT_TRUE(sys.restart_node(byz[0]));

  auto write = std::make_shared<bool>(false);
  client->write(kv_put("k", to_bytes("v")), [write](Bytes, Duration) { *write = true; });
  EXPECT_FALSE(drive::run_until(world, [&] { return *write; }, 10 * kSecond))
      << "the restarted replica forwarded: its flags were lost";

  for (NodeId n : byz) world.byzantine(n) = {};
  EXPECT_TRUE(drive::run_until(world, [&] { return *write; }, 30 * kSecond));
}

TEST(Recovery, RestartedBftReplicaResumesItsByzantineFlags) {
  World world(19);
  BftConfig cfg;
  cfg.sites = geo_replica_sites(Region::Virginia, 4);
  cfg.checkpoint_interval = 8;
  cfg.request_timeout = kSecond;
  cfg.view_change_timeout = 2 * kSecond;
  BftSystem sys(world, cfg);
  auto client = sys.make_client(Site{Region::Virginia, 0});
  ASSERT_TRUE(drive::blocking_write(world, *client, "warm", "w").ok);

  // f+1 = 2 of 4 replicas are fully isolated: 2f+1 = 3 votes never meet.
  const std::vector<NodeId> byz = {sys.replica_ids()[2], sys.replica_ids()[3]};
  for (NodeId n : byz) {
    world.byzantine(n).mute = true;
    world.byzantine(n).mute_rx = true;
  }
  ASSERT_TRUE(sys.crash_node(byz[0]));
  world.run_for(kSecond);
  ASSERT_TRUE(sys.restart_node(byz[0]));

  auto write = std::make_shared<bool>(false);
  client->write(kv_put("k", to_bytes("v")), [write](Bytes, Duration) { *write = true; });
  EXPECT_FALSE(drive::run_until(world, [&] { return *write; }, 10 * kSecond))
      << "the restarted replica voted: its flags were lost";

  for (NodeId n : byz) world.byzantine(n) = {};
  EXPECT_TRUE(drive::run_until(world, [&] { return *write; }, 30 * kSecond));
}

// ---------------------------------------------------------------------------
// Scripted acceptance scenario: crash the agreement leader at t1, partition
// an execution site at t2, restart/heal both at t3. All client writes stay
// linearizable, the restarted replicas provably catch up via checkpoint
// state transfer, and the whole run is byte-identical across two
// executions with the same seed.
// ---------------------------------------------------------------------------

struct ScriptedResult {
  Bytes history;
  bool all_completed = false;
  bool lin_ok = false;
  std::string lin_err;
  std::uint64_t exec_catchups = 0;
  ViewNr final_view = 0;
  bool views_converged = false;
  bool execs_converged = false;
};

ScriptedResult run_scripted(std::uint64_t seed) {
  World world(seed);
  SpiderTopology topo = topo_small();
  // Tight commit window (ke + max_batch is the liveness floor): the 6s
  // execution-site partition pushes it past the stalled site, so recovery
  // *must* go through checkpoint state transfer (commit-channel replay
  // cannot bridge the gap).
  topo.commit_capacity = 9;
  SpiderSystem sys(world, topo);
  HistoryRecorder hist(world);

  auto c0 = sys.make_client(Site{Region::Virginia, 0});
  auto c1 = sys.make_client(Site{Region::Tokyo, 0});
  auto c2 = sys.make_client(Site{Region::Oregon, 0});

  FaultPlan plan(world, sys);

  const Time t1 = 2 * kSecond, t2 = 4 * kSecond, t3 = 10 * kSecond;
  NodeId leader = sys.agreement(0).id();
  plan.crash_at(t1, leader);

  // Partition one execution *site* (one AZ = one replica of the Tokyo
  // group). Its group keeps committing — the other 2fe replicas carry the
  // quorums — and the commit window moves past the cut-off replica, so
  // after the heal it can only rejoin through checkpoint state transfer.
  // (Partitioning a whole group would never need fetch_cp: with z = 0 the
  // global flow control stops the system within one commit window of it.)
  GroupId tokyo = sys.nearest_group(Region::Tokyo);
  NodeId lagger = sys.exec(tokyo, 2).id();
  std::vector<NodeId> everyone_else;
  for (NodeId n : sys.replica_ids()) {
    if (n != lagger) everyone_else.push_back(n);
  }
  plan.partition_nodes_at(t2, {lagger}, everyone_else, /*heal_after=*/t3 - t2);
  plan.restart_at(t3, leader);

  std::vector<chaos::ClientHandle> handles = {
      chaos::ClientHandle::wrap(hist, *c0, 0),
      chaos::ClientHandle::wrap(hist, *c1, 1),
      chaos::ClientHandle::wrap(hist, *c2, 2),
  };
  chaos::WorkloadOptions opt;
  opt.ops_per_client = 16;
  opt.mean_gap = 400 * kMillisecond;
  std::vector<std::string> keys = chaos::key_pool(4);
  chaos::schedule_workload(world, handles, keys, opt);

  world.run_until(t3 + kSecond);
  ScriptedResult res;
  res.all_completed = drive::run_until(
      world, [&] { return hist.pending_count() == 0; }, 90 * kSecond);

  // Final strong reads prove no acknowledged write was lost.
  for (const std::string& k : keys) recorded(hist, *c0, 99, HistOp::StrongGet, k);
  drive::run_until(world, [&] { return hist.pending_count() == 0; }, 60 * kSecond);
  res.all_completed = res.all_completed && hist.pending_count() == 0;

  // Let checkpoints propagate, then measure convergence.
  world.run_for(5 * kSecond);
  LinResult lin = check_kv_history(hist);
  res.lin_ok = lin.ok;
  res.lin_err = lin.error;
  res.history = hist.serialize();
  for (std::size_t i = 0; i < sys.group_size(tokyo); ++i) {
    res.exec_catchups += sys.exec(tokyo, i).catchups();
  }
  res.final_view = sys.agreement(1).consensus().view();
  res.views_converged = true;
  for (std::size_t i = 0; i < sys.agreement_size(); ++i) {
    if (sys.agreement(i).consensus().view() != res.final_view) res.views_converged = false;
  }
  SeqNr ref = sys.exec(sys.nearest_group(Region::Virginia), 0).executed_seq();
  res.execs_converged = true;
  for (GroupId g : sys.group_ids()) {
    for (std::size_t i = 0; i < sys.group_size(g); ++i) {
      if (sys.exec(g, i).executed_seq() != ref) res.execs_converged = false;
    }
  }
  return res;
}

TEST(Recovery, ScriptedCrashPartitionRestartScenario) {
  ScriptedResult res = run_scripted(2026);
  EXPECT_TRUE(res.all_completed);
  EXPECT_TRUE(res.lin_ok) << res.lin_err;
  EXPECT_GT(res.final_view, 0u);        // the leader crash forced a view change
  EXPECT_TRUE(res.views_converged);     // including the restarted leader
  EXPECT_GE(res.exec_catchups, 1u);     // partitioned site recovered via checkpoints
  EXPECT_TRUE(res.execs_converged);
}

TEST(Recovery, ScriptedScenarioIsByteIdenticalAcrossRuns) {
  ScriptedResult a = run_scripted(2026);
  ScriptedResult b = run_scripted(2026);
  EXPECT_EQ(a.history, b.history);
  EXPECT_FALSE(a.history.empty());
  ScriptedResult c = run_scripted(2027);
  EXPECT_NE(c.history, a.history);  // the seed genuinely drives the run
}

}  // namespace
}  // namespace spider
