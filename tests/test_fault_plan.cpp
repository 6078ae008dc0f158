// Sim-layer tests for the fault-schedule engine: partitions, crash/restart
// hooks and the hook-less crash-stop fallback (on the sim and on loopback
// sockets), link shaping, slow-node mode, Byzantine windows, detach/re-attach
// in-flight message semantics, seed determinism and the script's text
// formats. randomize() runs against a small fake fault surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "net/loopback_transport.hpp"
#include "net/realtime.hpp"
#include "sim/fault_plan.hpp"
#include "sim/fault_surface.hpp"
#include "sim/node.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

/// Minimal node: counts and stores inbound payload bytes.
class EchoNode : public SimNode {
 public:
  EchoNode(World& world, Site site) : SimNode(world, world.allocate_id(), site) {}

  void on_message(NodeId from, BytesView data) override {
    ++received;
    last_from = from;
    last_payload = to_bytes(data);
  }

  int received = 0;
  NodeId last_from = kInvalidNode;
  Bytes last_payload;
};

Bytes payload(const char* s) { return to_bytes(std::string(s)); }

/// A fault surface with no processes behind it: fixed replica groups, and
/// crash/restart calls that only track which replicas are down.
class FakeSurface final : public FaultSurface {
 public:
  explicit FakeSurface(std::vector<ReplicaGroup> groups) : groups_(std::move(groups)) {}

  bool crash_node(NodeId id) override {
    down.insert(id);
    max_down = std::max(max_down, down.size());
    return true;
  }
  bool restart_node(NodeId id) override { return down.erase(id) > 0; }
  [[nodiscard]] std::vector<ReplicaGroup> replica_groups() const override { return groups_; }

  std::set<NodeId> down;
  std::size_t max_down = 0;

 private:
  std::vector<ReplicaGroup> groups_;
};

TEST(FaultPlan, PartitionCutsAndHeals) {
  World world(1);
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Tokyo, 0});
  FaultPlan plan(world);
  plan.partition_nodes_at(kSecond, {a.id()}, {b.id()}, /*heal_after=*/kSecond);

  world.net().send(a.id(), b.id(), payload("pre"));
  world.run_for(500 * kMillisecond);
  EXPECT_EQ(b.received, 1);  // before the cut

  world.run_until(kSecond + 10);
  world.net().send(a.id(), b.id(), payload("cut"));
  world.net().send(b.id(), a.id(), payload("cut-rev"));
  world.run_for(500 * kMillisecond);
  EXPECT_EQ(b.received, 1);  // both directions dropped
  EXPECT_EQ(a.received, 0);

  world.run_until(2 * kSecond + 10);  // auto-heal
  world.net().send(a.id(), b.id(), payload("post"));
  world.run_for(500 * kMillisecond);
  EXPECT_EQ(b.received, 2);
}

TEST(FaultPlan, CrashRestartHooksFire) {
  World world(1);
  FaultPlan plan(world);
  std::vector<std::pair<std::string, NodeId>> events;
  plan.on_crash = [&](NodeId n) { events.emplace_back("crash", n); };
  plan.on_restart = [&](NodeId n) { events.emplace_back("restart", n); };

  plan.crash_at(kSecond, 42);
  plan.restart_at(2 * kSecond, 42);
  plan.restart_at(3 * kSecond, 42);  // duplicate restart: ignored

  world.run_until(500 * kMillisecond);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(plan.crashed(42));
  world.run_until(kSecond + 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(plan.crashed(42));
  world.run_until(4 * kSecond);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].first, "restart");
  EXPECT_FALSE(plan.crashed(42));
}

TEST(FaultPlan, FaultSurfaceConstructorBindsCrashHooks) {
  World world(1);
  FakeSurface sys({{{1, 2, 3, 4}, 1, true}});
  FaultPlan plan(world, sys);
  plan.crash_at(kSecond, 3);
  plan.restart_at(2 * kSecond, 3);

  world.run_until(kSecond + 1);
  EXPECT_EQ(sys.down, std::set<NodeId>{3});
  EXPECT_FALSE(world.net().is_down(3)) << "a bound crash must not fall back to crash-stop";
  world.run_until(3 * kSecond);
  EXPECT_TRUE(sys.down.empty());
}

TEST(FaultPlan, RandomizeWithoutFaultSurfaceThrows) {
  World world(1);
  FaultPlan plan(world);
  EXPECT_THROW(plan.randomize({}), std::logic_error);
  EXPECT_EQ(plan.serialize_script(), "");
}

TEST(FaultPlan, CrashStopFallbackWithoutHooks) {
  World world(1);
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 1});
  FaultPlan plan(world);
  plan.crash_at(0, b.id());
  plan.restart_at(kSecond, b.id());

  world.run_for(10);
  EXPECT_TRUE(world.net().is_down(b.id()));
  world.net().send(a.id(), b.id(), payload("x"));
  world.run_for(500 * kMillisecond);
  EXPECT_EQ(b.received, 0);

  world.run_until(kSecond + 10);
  EXPECT_FALSE(world.net().is_down(b.id()));
  world.net().send(a.id(), b.id(), payload("y"));
  world.run_for(500 * kMillisecond);
  EXPECT_EQ(b.received, 1);
}

// The fallback marks the World's installed transport, not the sim network
// behind it: on real sockets a crashed node must stop receiving too.
TEST(FaultPlan, CrashStopFallbackReachesAnInstalledTransport) {
  World world(1);
  net::LoopbackTransport sock;
  world.install_transport(&sock);
  net::RealtimeDriver driver(world, sock);
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 1});
  FaultPlan plan(world);
  plan.crash_at(10 * kMillisecond, b.id());
  plan.restart_at(300 * kMillisecond, b.id());

  world.run_until(20 * kMillisecond);
  EXPECT_TRUE(sock.is_down(b.id()));
  world.transport().send(a.id(), b.id(), payload("x"));
  world.run_until(250 * kMillisecond);
  EXPECT_EQ(b.received, 0);

  world.run_until(310 * kMillisecond);
  EXPECT_FALSE(sock.is_down(b.id()));
  world.transport().send(a.id(), b.id(), payload("y"));
  for (int i = 0; i < 500 && b.received == 0; ++i) world.run_for(10 * kMillisecond);
  EXPECT_EQ(b.received, 1);
  EXPECT_EQ(b.last_payload, payload("y"));
}

TEST(FaultPlan, LinkDelaySpikeDefersDelivery) {
  World world(1);
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 0});
  FaultPlan plan(world);
  plan.link_delay_at(0, a.id(), b.id(), /*extra=*/300 * kMillisecond,
                     /*duration=*/kSecond);

  world.run_for(10);
  world.net().send(a.id(), b.id(), payload("slowed"));
  world.run_for(250 * kMillisecond);
  EXPECT_EQ(b.received, 0);  // normally sub-millisecond intra-AZ
  world.run_for(200 * kMillisecond);
  EXPECT_EQ(b.received, 1);

  world.run_until(2 * kSecond);  // spike over
  world.net().send(a.id(), b.id(), payload("fast"));
  world.run_for(50 * kMillisecond);
  EXPECT_EQ(b.received, 2);
}

TEST(FaultPlan, LinkLossDropsRoughlyAtRate) {
  World world(99);
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 0});
  FaultPlan plan(world);
  plan.link_loss_at(0, a.id(), b.id(), /*loss=*/0.5, /*duration=*/60 * kSecond);

  world.run_for(10);
  for (int i = 0; i < 200; ++i) world.net().send(a.id(), b.id(), payload("p"));
  world.run_for(10 * kSecond);
  EXPECT_GT(b.received, 60);
  EXPECT_LT(b.received, 140);
}

TEST(FaultPlan, SlowNodeStretchesTransmitTime) {
  World world(1);
  // Jitter off for exact timing math.
  world.net().jitter_frac = 0.0;
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 0});

  Bytes big(75'000, 0xab);  // 1000 us at full 75 B/us bandwidth
  world.net().send(a.id(), b.id(), big);
  world.run_for(5 * kSecond);
  ASSERT_EQ(b.received, 1);

  FaultPlan plan(world);
  plan.slow_node_at(world.now(), a.id(), /*factor=*/0.1, /*duration=*/60 * kSecond);
  world.run_for(10);
  Time before = world.now();
  world.net().send(a.id(), b.id(), big);
  world.run_for(9'000);
  EXPECT_EQ(b.received, 1);  // 10x transmit time: not there yet
  world.run_for(5 * kSecond);
  EXPECT_EQ(b.received, 2);
  (void)before;
}

TEST(FaultPlan, SlowerEndBoundsTransmitUntilItsWindowCloses) {
  World world(1);
  world.net().jitter_frac = 0.0;
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 0});
  FaultPlan plan(world);
  plan.slow_node_at(0, a.id(), /*factor=*/0.1, /*duration=*/kSecond);
  plan.slow_node_at(0, b.id(), /*factor=*/0.5, /*duration=*/2 * kSecond);

  // One-way time of a 75 kB message: 1000 us of transmit at full speed.
  auto one_way = [&] {
    const int before = b.received;
    const Time sent = world.now();
    world.net().send(a.id(), b.id(), Bytes(75'000, 0xab));
    while (b.received == before) world.queue().run_next();
    return world.now() - sent;
  };
  world.run_until(10);
  const Duration both_slow = one_way();  // the sender's 0.1 bounds the link
  world.run_until(1500 * kMillisecond);
  const Duration receiver_slow = one_way();
  world.run_until(2500 * kMillisecond);
  const Duration full = one_way();
  EXPECT_EQ(both_slow - full, 9'000);
  EXPECT_EQ(receiver_slow - full, 1'000);
}

TEST(FaultPlan, OverlappingWindowsExtendInsteadOfTruncating) {
  World world(1);
  EchoNode a(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Virginia, 0});
  FaultPlan plan(world);
  // Two overlapping delay windows: [0, 1s) and [0.5s, 1.5s). The first
  // window's end at 1s must not cancel the second, which runs to 1.5s.
  plan.link_delay_at(0, a.id(), b.id(), 300 * kMillisecond, kSecond);
  plan.link_delay_at(500 * kMillisecond, a.id(), b.id(), 300 * kMillisecond, kSecond);

  world.run_until(1200 * kMillisecond);  // past the first end, inside the second
  world.net().send(a.id(), b.id(), payload("still-slow"));
  world.run_for(250 * kMillisecond);
  EXPECT_EQ(b.received, 0);  // delay still applied
  world.run_for(200 * kMillisecond);
  EXPECT_EQ(b.received, 1);

  world.run_until(2 * kSecond);  // both windows over
  world.net().send(a.id(), b.id(), payload("fast"));
  world.run_for(50 * kMillisecond);
  EXPECT_EQ(b.received, 2);
}

TEST(NetworkIncarnation, InFlightToRestartedNodeIsLost) {
  World world(1);
  EchoNode a(world, Site{Region::Virginia, 0});
  auto b = std::make_unique<EchoNode>(world, Site{Region::Tokyo, 0});
  NodeId b_id = b->id();

  // Message in flight (Tokyo: ~80ms one-way); b restarts before arrival.
  world.net().send(a.id(), b_id, payload("old-epoch"));
  world.run_for(10 * kMillisecond);
  Site site = b->site();
  b.reset();  // crash: detach bumps the incarnation
  // Rebuild under the same id (as restart_node does for replicas).
  class SameId : public SimNode {
   public:
    SameId(World& w, NodeId id, Site s) : SimNode(w, id, s) {}
    void on_message(NodeId, BytesView) override { ++received; }
    int received = 0;
  };
  SameId b2(world, b_id, site);

  world.run_for(kSecond);
  EXPECT_EQ(b2.received, 0);  // the old-epoch message died with the old process

  world.net().send(a.id(), b_id, payload("new-epoch"));
  world.run_for(kSecond);
  EXPECT_EQ(b2.received, 1);  // new-epoch traffic flows normally
}

TEST(NetworkIncarnation, InFlightFromDeadSenderStillArrives) {
  World world(1);
  auto a = std::make_unique<EchoNode>(world, Site{Region::Virginia, 0});
  EchoNode b(world, Site{Region::Tokyo, 0});

  world.net().send(a->id(), b.id(), payload("datagram"));
  world.run_for(10 * kMillisecond);
  a.reset();  // sender dies with the message on the wire
  world.run_for(kSecond);
  EXPECT_EQ(b.received, 1);  // datagrams in flight outlive their sender
}

TEST(FaultPlan, RandomizedScheduleIsSeedDeterministic) {
  auto script_for = [](std::uint64_t seed) {
    World world(seed);
    FakeSurface sys({{{1, 2}, 1, true}, {{3, 4}, 1, false}});
    FaultPlan plan(world, sys);
    FaultPlan::ChaosProfile profile;
    profile.actions = 6;
    plan.randomize(profile);
    return plan.describe();
  };
  EXPECT_EQ(script_for(5), script_for(5));
  EXPECT_NE(script_for(5), script_for(6));
  EXPECT_FALSE(script_for(5).empty());
}

TEST(FaultPlan, RandomizedCrashesStayWithinTheSmallestGroupF) {
  // At most the smallest group f replicas are down at once: one when any
  // group tolerates only one fault, two when every group tolerates two.
  auto max_down = [](std::uint32_t exec_f) {
    std::size_t most = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      World world(seed);
      FakeSurface sys({{{1, 2, 3, 4, 5, 6, 7}, 2, true}, {{10, 11, 12, 13, 14}, exec_f, false}});
      FaultPlan plan(world, sys);
      FaultPlan::ChaosProfile profile;
      profile.actions = 40;
      plan.randomize(profile);
      world.run_until(profile.horizon + kSecond);
      EXPECT_TRUE(sys.down.empty()) << "every crash restarts by the horizon";
      most = std::max(most, sys.max_down);
    }
    return most;
  };
  EXPECT_EQ(max_down(1), 1u);
  EXPECT_EQ(max_down(2), 2u);
}

// ---------------------------------------------------------------------------
// Byzantine windows
// ---------------------------------------------------------------------------

/// Runs `world` one event at a time until `until`, recording (node, on)
/// whenever any() of one of `nodes`' World flag entries changes.
std::vector<std::pair<NodeId, bool>> byz_transitions(World& world, Time until,
                                                     const std::vector<NodeId>& nodes) {
  std::vector<std::pair<NodeId, bool>> out;
  std::map<NodeId, bool> last;
  for (NodeId n : nodes) last[n] = world.byzantine(n).any();
  while (world.queue().next_time().value_or(until + 1) <= until) {
    world.queue().run_next();
    for (NodeId n : nodes) {
      const bool on = world.byzantine(n).any();
      if (std::exchange(last[n], on) != on) out.emplace_back(n, on);
    }
  }
  world.run_until(until);
  return out;
}

TEST(FaultPlan, ByzantineWindowTogglesFlagsThroughHook) {
  // The plan's "hook" is the World entry each window writes.
  World world(1);
  FaultPlan plan(world);
  const std::vector<NodeId> nodes = {7, 9};

  plan.byzantine_at(kSecond, 7, {.corrupt_replies = true}, kSecond);
  plan.byzantine_at(2500 * kMillisecond, 9, {.mute = true, .mute_rx = true}, kSecond);
  // A window with no flag could not be read back from the script.
  EXPECT_THROW(plan.byzantine_at(kSecond, 7, {}, kSecond), std::invalid_argument);

  EXPECT_TRUE(byz_transitions(world, 500 * kMillisecond, nodes).empty());
  EXPECT_FALSE(world.byzantine(7).any());

  auto calls = byz_transitions(world, kSecond + 1, nodes);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(NodeId{7}, true));
  EXPECT_TRUE(world.byzantine(7).corrupt_replies);

  calls = byz_transitions(world, 2 * kSecond + 1, nodes);  // window end clears the node
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(NodeId{7}, false));
  EXPECT_FALSE(world.byzantine(7).any());

  calls = byz_transitions(world, 3 * kSecond, nodes);  // mute window runs [2.5s, 3.5s)
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(NodeId{9}, true));
  EXPECT_TRUE(world.byzantine(9).mute);
  EXPECT_TRUE(world.byzantine(9).mute_rx);
  calls = byz_transitions(world, 4 * kSecond, nodes);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(NodeId{9}, false));
  EXPECT_FALSE(world.byzantine(9).any());
}

TEST(FaultPlan, OverlappingByzantineWindowsExtendAndCompose) {
  World world(1);
  FaultPlan plan(world);
  // Same flag overlapping: [0, 1s) and [0.5s, 1.5s) — the first end must
  // not clear the flag early. A different flag on the same node composes.
  plan.byzantine_at(0, 7, {.corrupt_replies = true}, kSecond);
  plan.byzantine_at(500 * kMillisecond, 7, {.corrupt_replies = true}, kSecond);
  plan.byzantine_at(200 * kMillisecond, 7, {.drop_forwarding = true}, kSecond);

  world.run_until(1100 * kMillisecond);  // past the first corrupt end
  EXPECT_TRUE(world.byzantine(7).corrupt_replies);
  EXPECT_TRUE(world.byzantine(7).drop_forwarding);
  world.run_until(1300 * kMillisecond);  // drop-forwarding window over
  EXPECT_TRUE(world.byzantine(7).corrupt_replies);
  EXPECT_FALSE(world.byzantine(7).drop_forwarding);
  world.run_until(2 * kSecond);
  EXPECT_FALSE(world.byzantine(7).any());
}

TEST(FaultPlan, RandomizedByzantineScheduleRespectsPerRoleCaps) {
  // With f = 1 in every consensus and exec group, a schedule of many
  // Byzantine actions must never touch more than one distinct node of
  // each group.
  World world(42);
  FakeSurface sys({{{1, 2, 3, 4}, 1, true}, {{10, 11, 12}, 1, false}, {{20, 21, 22}, 1, false}});
  FaultPlan plan(world, sys);
  FaultPlan::ChaosProfile profile;
  profile.actions = 0;
  profile.byz_actions = 24;
  plan.randomize(profile);
  std::set<NodeId> touched;
  for (const auto& [n, on] : byz_transitions(world, profile.horizon + kSecond,
                                             {1, 2, 3, 4, 10, 11, 12, 20, 21, 22})) {
    if (on) touched.insert(n);
  }

  EXPECT_FALSE(touched.empty());
  auto count_in = [&touched](std::vector<NodeId> grp) {
    std::size_t c = 0;
    for (NodeId n : grp) c += touched.count(n);
    return c;
  };
  EXPECT_LE(count_in({1, 2, 3, 4}), 1u);
  EXPECT_LE(count_in({10, 11, 12}), 1u);
  EXPECT_LE(count_in({20, 21, 22}), 1u);
}

// ---------------------------------------------------------------------------
// Script round trip
// ---------------------------------------------------------------------------

TEST(FaultPlan, ScriptRoundTripReproducesScheduleExactly) {
  auto build = [](FaultPlan& plan) {
    plan.partition_nodes_at(kSecond, {1, 2}, {3, 4}, 2 * kSecond);
    plan.crash_at(2 * kSecond, 5);
    plan.restart_at(4 * kSecond, 5);
    plan.link_delay_at(3 * kSecond, 1, 3, 80 * kMillisecond, kSecond);
    plan.link_loss_at(3 * kSecond, 2, 4, 0.375, kSecond);
    plan.slow_node_at(5 * kSecond, 2, 0.25, kSecond);
    plan.byzantine_at(6 * kSecond, 1, {.mute = true, .mute_rx = true}, kSecond);
    plan.byzantine_at(6 * kSecond, 2, {.equivocate = true}, kSecond);
    plan.byzantine_at(6 * kSecond, 3, {.forge_checkpoints = true}, kSecond);
    plan.byzantine_at(7 * kSecond, 4, {.corrupt_replies = true}, kSecond);
    plan.byzantine_at(7 * kSecond, 5, {.drop_forwarding = true}, kSecond);
  };

  World w1(1);
  FaultPlan p1(w1);
  build(p1);
  std::string script = p1.serialize_script();
  ASSERT_FALSE(script.empty());

  World w2(1);
  FaultPlan p2(w2);
  p2.schedule_script(script);
  // The reloaded plan re-serializes AND re-describes identically: same
  // actions, same order, same parameters (doubles round-trip bit-exactly).
  EXPECT_EQ(p2.serialize_script(), script);
  EXPECT_EQ(p2.describe(), p1.describe());

  // And it *behaves* identically: the same Byzantine transitions fire.
  const std::vector<NodeId> nodes = {1, 2, 3, 4, 5};
  World w3(1);
  FaultPlan p3(w3);
  build(p3);
  const auto t1 = byz_transitions(w3, 10 * kSecond, nodes);
  World w4(1);
  FaultPlan p4(w4);
  p4.schedule_script(script);
  const auto t2 = byz_transitions(w4, 10 * kSecond, nodes);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

TEST(FaultPlan, RandomizedScheduleSurvivesScriptRoundTrip) {
  World w1(9);
  FakeSurface sys({{{1, 2, 3, 4}, 1, true}, {{10, 11, 12}, 1, false}});
  FaultPlan p1(w1, sys);
  FaultPlan::ChaosProfile profile;
  profile.actions = 6;
  profile.byz_actions = 5;
  p1.randomize(profile);
  std::string script = p1.serialize_script();

  World w2(9);
  FaultPlan p2(w2);
  p2.schedule_script(script);
  EXPECT_EQ(p2.serialize_script(), script);
  EXPECT_EQ(p2.describe(), p1.describe());
}

TEST(FaultPlan, ScriptAndDescribeKnownAnswers) {
  // Pins every script line format and describe() label: one action of each
  // kind, one window per Byzantine flag plus mute+mute-rx, a loss rate that
  // needs 17 digits, and calls out of time order (describe() sorts by time,
  // stably; the script keeps call order).
  World world(1);
  FaultPlan plan(world);
  plan.partition_nodes_at(kSecond, {1, 2}, {3, 4}, 2 * kSecond);
  plan.partition_nodes_at(1500 * kMillisecond, {5}, {6, 7});
  plan.crash_at(2 * kSecond, 5);
  plan.restart_at(4 * kSecond, 5);
  plan.link_delay_at(3 * kSecond, 1, 3, 80 * kMillisecond, kSecond);
  plan.link_loss_at(3 * kSecond, 2, 4, 0.1, kSecond);
  plan.slow_node_at(500 * kMillisecond, 2, 0.25, kSecond);
  plan.byzantine_at(6 * kSecond, 1, {.corrupt_replies = true}, kSecond);
  plan.byzantine_at(6 * kSecond, 2, {.drop_forwarding = true}, kSecond);
  plan.byzantine_at(5 * kSecond, 3, {.mute = true}, 2 * kSecond);
  plan.byzantine_at(5 * kSecond, 4, {.mute_rx = true}, 2 * kSecond);
  plan.byzantine_at(5500 * kMillisecond, 5, {.equivocate = true}, kSecond);
  plan.byzantine_at(6500 * kMillisecond, 6, {.forge_checkpoints = true}, kSecond);
  plan.byzantine_at(7 * kSecond, 7, {.mute = true, .mute_rx = true}, kSecond);

  EXPECT_EQ(plan.serialize_script(),
            "partition 1000000 2000000 2 1 2 2 3 4\n"
            "partition 1500000 0 1 5 2 6 7\n"
            "crash 2000000 5\n"
            "restart 4000000 5\n"
            "delay 3000000 1000000 1 3 80000\n"
            "loss 3000000 1000000 2 4 0.10000000000000001\n"
            "slow 500000 1000000 2 0.25\n"
            "byz 6000000 1000000 1 1\n"
            "byz 6000000 1000000 2 2\n"
            "byz 5000000 2000000 3 4\n"
            "byz 5000000 2000000 4 8\n"
            "byz 5500000 1000000 5 16\n"
            "byz 6500000 1000000 6 32\n"
            "byz 7000000 1000000 7 12\n");
  EXPECT_EQ(plan.describe(),
            "t=500000us  slow node 2 x0.250000\n"
            "t=1000000us  partition#1\n"
            "t=1500000us  partition#2\n"
            "t=1500000us  slow-end node 2\n"
            "t=2000000us  crash node 5\n"
            "t=3000000us  heal#1\n"
            "t=3000000us  delay+80000us link 1<->3\n"
            "t=3000000us  loss 0.100000 link 2<->4\n"
            "t=4000000us  restart node 5\n"
            "t=4000000us  delay-end link 1<->3\n"
            "t=4000000us  loss-end link 2<->4\n"
            "t=5000000us  byz+mute node 3\n"
            "t=5000000us  byz+mute-rx node 4\n"
            "t=5500000us  byz+equivocate node 5\n"
            "t=6000000us  byz+corrupt-replies node 1\n"
            "t=6000000us  byz+drop-forwarding node 2\n"
            "t=6500000us  byz-end node 5\n"
            "t=6500000us  byz+forge-checkpoints node 6\n"
            "t=7000000us  byz-end node 1\n"
            "t=7000000us  byz-end node 2\n"
            "t=7000000us  byz-end node 3\n"
            "t=7000000us  byz-end node 4\n"
            "t=7000000us  byz+mute+mute-rx node 7\n"
            "t=7500000us  byz-end node 6\n"
            "t=8000000us  byz-end node 7\n");
}

TEST(FaultPlan, MalformedScriptThrows) {
  World world(1);
  FaultPlan plan(world);
  EXPECT_THROW(plan.schedule_script("crash notatime 5\n"), std::invalid_argument);
  EXPECT_THROW(plan.schedule_script("frobnicate 1000\n"), std::invalid_argument);
  EXPECT_THROW(plan.schedule_script("partition 1000 0 2 1\n"), std::invalid_argument);
  // Lines serialize_script could never have written: trailing tokens, then
  // one out-of-range value per rule.
  for (const char* line : {
           "crash 1000 5 6",                 // trailing token
           "crash -1000 5",                  // negative time
           "crash 1000 -5",                  // negative node
           "partition 1000 500 1 -1 1 2",    // negative node on a partition side
           "delay 1000 500 1 -2 7",          // negative peer
           "partition 1000 -5 1 1 1 2",      // negative heal delay: never heals
           "delay 1000 500 1 2 -7",          // negative extra delay
           "loss 1000 500 1 2 7.5",          // loss above 1
           "loss 1000 -500 1 2 0.5",         // negative duration
           "loss 1000 500 1 2 -1",           // loss below 0
           "slow 1000 500 3 0",              // slow factor 0
           "slow 1000 500 3 1.5",            // slow factor above 1
           "byz 1000 500 3 0",               // no flag
           "byz 1000 500 3 64",              // undefined flag
           "byz 1000 500 3 255",             // undefined flags
           "sitepart 1000 0 1 99 0 1 0 0",   // site partitions are not a kind
           "sitepart 1000 0 1 0 300 1 1 0",  // (also with an az above 255)
           "healall 1000",                   // heal-all is not a kind
       }) {
    EXPECT_THROW(plan.schedule_script(std::string(line) + "\n"), std::invalid_argument)
        << line;
  }
}

}  // namespace
}  // namespace spider
