#include <gtest/gtest.h>

#include "common/serde.hpp"
#include "sim/node.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(10, [&] { order.push_back(2); });
  q.schedule_at(10, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, Cancel) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule_at(10, [&] { fired = true; });
  q.cancel(id);
  q.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto id = q.schedule_at(10, [] {});
  q.run_all();
  q.cancel(id);  // must not crash
}

TEST(EventQueue, RunUntilAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { count++; });
  q.schedule_at(100, [&] { count++; });
  q.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(q.now(), 50);
  q.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_all();
  Time fired_at = -1;
  q.schedule_at(5, [&] { fired_at = q.now(); });
  q.run_all();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventQueue, EventsScheduleEvents) {
  EventQueue q;
  std::vector<Time> times;
  q.schedule_at(10, [&] {
    times.push_back(q.now());
    q.schedule_after(5, [&] { times.push_back(q.now()); });
  });
  q.run_all();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(EventQueue, FifoTieBreakSurvivesCancelChurn) {
  // The heap's (time, id) order must reproduce exact scheduling order at
  // equal timestamps even when interleaved cancels punch holes into the
  // heap (tombstones must never perturb the survivors' relative order).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule_at(10, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 200; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  q.run_all();
  std::vector<int> expect;
  for (int i = 1; i < 200; i += 2) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, CancelledEntriesDoNotAccumulate) {
  // Lazy deletion must be bounded: cancelling almost everything compacts
  // the heap, so tombstones can never exceed ~half the slots.
  EventQueue q;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.schedule_at(100 + i, [] {}));
  }
  for (int i = 0; i < 9900; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.pending(), 100u);
  EXPECT_LE(q.heap_slots(), 2 * q.pending() + 64)
      << "cancel leak: dead entries lingering in the heap";

  // The survivors still fire.
  std::size_t n = 0;
  while (q.run_next()) ++n;
  EXPECT_EQ(n, 100u);
}

TEST(EventQueue, CancelOfStaleIdNeverKillsALaterEvent) {
  // Ids are generation counters: once an id fires, cancelling it is a
  // permanent no-op — it can never alias a later event.
  EventQueue q;
  auto stale = q.schedule_at(10, [] {});
  q.run_all();
  bool fired = false;
  q.schedule_at(20, [&] { fired = true; });
  q.cancel(stale);
  q.run_all();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelFromInsideHandler) {
  EventQueue q;
  bool victim_fired = false;
  EventQueue::EventId victim = 0;
  q.schedule_at(10, [&] { q.cancel(victim); });
  victim = q.schedule_at(20, [&] { victim_fired = true; });
  bool after_fired = false;
  q.schedule_at(30, [&] { after_fired = true; });
  q.run_all();
  EXPECT_FALSE(victim_fired);
  EXPECT_TRUE(after_fired);
}

TEST(EventQueue, RunUntilSkipsCancelledHead) {
  EventQueue q;
  auto head = q.schedule_at(10, [] {});
  int fired = 0;
  q.schedule_at(40, [&] { ++fired; });
  q.cancel(head);
  q.run_until(20);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(fired, 0);
  q.run_until(50);
  EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------- Topology

TEST(Topology, RttSymmetric) {
  for (int a = 0; a < kNumRegions; ++a) {
    for (int b = 0; b < kNumRegions; ++b) {
      EXPECT_EQ(region_rtt(static_cast<Region>(a), static_cast<Region>(b)),
                region_rtt(static_cast<Region>(b), static_cast<Region>(a)));
    }
  }
}

TEST(Topology, SelfRttZero) {
  EXPECT_EQ(region_rtt(Region::Virginia, Region::Virginia), 0);
}

TEST(Topology, AzLatencies) {
  Site a{Region::Virginia, 0}, b{Region::Virginia, 1}, c{Region::Virginia, 0};
  EXPECT_EQ(one_way_latency(a, b), 600);  // inter-AZ 1.2ms RTT
  EXPECT_EQ(one_way_latency(a, c), 200);  // intra-AZ 0.4ms RTT
}

TEST(Topology, WanClassification) {
  Site va{Region::Virginia, 0}, or_{Region::Oregon, 0}, va2{Region::Virginia, 2};
  EXPECT_TRUE(is_wan(va, or_));
  EXPECT_FALSE(is_wan(va, va2));
}

TEST(Topology, CrossRegionLatencyMatchesMatrix) {
  Site va{Region::Virginia, 0}, tk{Region::Tokyo, 1};
  EXPECT_EQ(one_way_latency(va, tk), region_rtt(Region::Virginia, Region::Tokyo) / 2);
}

TEST(Topology, NamesAndCodes) {
  EXPECT_STREQ(region_name(Region::SaoPaulo), "SaoPaulo");
  EXPECT_STREQ(region_code(Region::Virginia), "V");
  EXPECT_STREQ(region_code(Region::Seoul), "SE");
}

// ------------------------------------------------------------- Node + Network

/// Test node that records inbound messages and can echo.
class EchoNode : public SimNode {
 public:
  using SimNode::SimNode;

  void on_message(NodeId from, BytesView data) override {
    received.emplace_back(from, to_bytes(data));
    received_at.push_back(now());
    if (echo) send_to(from, to_bytes(data));
    if (extra_charge > 0) charge(extra_charge);
  }

  std::vector<std::pair<NodeId, Bytes>> received;
  std::vector<Time> received_at;
  bool echo = false;
  Duration extra_charge = 0;
};

struct NetFixture {
  World world{1};
  EchoNode va;
  EchoNode tokyo;

  NetFixture()
      : va(world, world.allocate_id(), Site{Region::Virginia, 0}),
        tokyo(world, world.allocate_id(), Site{Region::Tokyo, 0}) {}
};

TEST(SimNetwork, DeliversWithWanLatency) {
  NetFixture f;
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("ping")));
  f.world.run_for(200 * kMillisecond);
  ASSERT_EQ(f.tokyo.received.size(), 1u);
  EXPECT_EQ(to_string(f.tokyo.received[0].second), "ping");
  // One-way Virginia->Tokyo is 78ms (156ms RTT); allow jitter and overhead.
  Time at = f.tokyo.received_at[0];
  EXPECT_GE(at, 78 * kMillisecond);
  EXPECT_LE(at, 82 * kMillisecond);
}

TEST(SimNetwork, RoundTripEcho) {
  NetFixture f;
  f.tokyo.echo = true;
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("ping")));
  f.world.run_for(400 * kMillisecond);
  ASSERT_EQ(f.va.received.size(), 1u);
  EXPECT_GE(f.va.received_at[0], 156 * kMillisecond);
  EXPECT_LE(f.va.received_at[0], 165 * kMillisecond);
}

TEST(SimNetwork, FifoPerPair) {
  NetFixture f;
  for (int i = 0; i < 20; ++i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    f.va.send_to(f.tokyo.id(), std::move(w).take());
  }
  f.world.run_for(200 * kMillisecond);
  ASSERT_EQ(f.tokyo.received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    Reader r(f.tokyo.received[static_cast<std::size_t>(i)].second);
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(i));
  }
}

TEST(SimNetwork, ByteAccounting) {
  NetFixture f;
  Bytes msg(1000, 0);
  f.va.send_to(f.tokyo.id(), msg);
  f.world.run_for(200 * kMillisecond);
  EXPECT_EQ(f.world.net().stats().wan_bytes, 1000u);
  EXPECT_EQ(f.world.net().stats().wan_msgs, 1u);
  EXPECT_EQ(f.world.net().stats().lan_bytes, 0u);
  EXPECT_EQ(f.world.net().node_stats(f.va.id()).sent_wan_bytes, 1000u);
  EXPECT_EQ(f.world.net().node_stats(f.tokyo.id()).recv_bytes, 1000u);
}

TEST(SimNetwork, LanAccounting) {
  World world{1};
  EchoNode a(world, world.allocate_id(), Site{Region::Ireland, 0});
  EchoNode b(world, world.allocate_id(), Site{Region::Ireland, 1});
  a.send_to(b.id(), Bytes(10, 0));
  world.run_for(10 * kMillisecond);
  EXPECT_EQ(world.net().stats().lan_bytes, 10u);
  EXPECT_EQ(world.net().stats().wan_bytes, 0u);
}

TEST(SimNetwork, LinkFilterDrops) {
  NetFixture f;
  f.world.net().set_fault_shaper(
      [&](NodeId from, NodeId) { return LinkFault{.cut = from == f.va.id()}; });
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("dropped")));
  f.world.run_for(200 * kMillisecond);
  EXPECT_TRUE(f.tokyo.received.empty());
}

TEST(SimNetwork, DownNodeReceivesNothing) {
  NetFixture f;
  f.world.net().set_node_down(f.tokyo.id(), true);
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("x")));
  f.world.run_for(200 * kMillisecond);
  EXPECT_TRUE(f.tokyo.received.empty());
  // Recovery: node comes back and receives subsequent traffic.
  f.world.net().set_node_down(f.tokyo.id(), false);
  f.va.send_to(f.tokyo.id(), to_bytes(std::string("y")));
  f.world.run_for(200 * kMillisecond);
  ASSERT_EQ(f.tokyo.received.size(), 1u);
  EXPECT_EQ(to_string(f.tokyo.received[0].second), "y");
}

TEST(SimNode, CpuSerializesWork) {
  World world{1};
  EchoNode sender(world, world.allocate_id(), Site{Region::Virginia, 0});
  EchoNode busy(world, world.allocate_id(), Site{Region::Virginia, 0});
  busy.extra_charge = 10 * kMillisecond;  // each message costs 10ms CPU

  for (int i = 0; i < 3; ++i) sender.send_to(busy.id(), Bytes{1});
  world.run_for(kSecond);
  ASSERT_EQ(busy.received.size(), 3u);
  // Handling is serialized: starts roughly 10ms apart.
  EXPECT_GE(busy.received_at[1] - busy.received_at[0], 10 * kMillisecond);
  EXPECT_GE(busy.received_at[2] - busy.received_at[1], 10 * kMillisecond);
  EXPECT_GE(busy.busy_time(), 30 * kMillisecond);
}

TEST(SimNode, ChargeDelaysOutputs) {
  World world{1};
  EchoNode client(world, world.allocate_id(), Site{Region::Virginia, 0});
  EchoNode server(world, world.allocate_id(), Site{Region::Virginia, 0});
  server.echo = true;
  server.extra_charge = 5 * kMillisecond;

  client.send_to(server.id(), Bytes{1});
  world.run_for(kSecond);
  ASSERT_EQ(client.received.size(), 1u);
  // Echo reply leaves only after the 5ms CPU charge.
  EXPECT_GE(client.received_at[0], 5 * kMillisecond);
}

TEST(SimNode, TimerFiresAndCancels) {
  World world{1};
  EchoNode n(world, world.allocate_id(), Site{Region::Virginia, 0});
  int fired = 0;
  n.set_timer(10 * kMillisecond, [&] { fired++; });
  auto id = n.set_timer(20 * kMillisecond, [&] { fired++; });
  n.cancel_timer(id);
  world.run_for(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST(SimNode, DeterministicAcrossRuns) {
  auto run = [] {
    World world{42};
    EchoNode a(world, world.allocate_id(), Site{Region::Virginia, 0});
    EchoNode b(world, world.allocate_id(), Site{Region::Tokyo, 0});
    b.echo = true;
    for (int i = 0; i < 5; ++i) a.send_to(b.id(), Bytes{static_cast<std::uint8_t>(i)});
    world.run_for(kSecond);
    std::vector<Time> times = a.received_at;
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(World, AllocatesDistinctIds) {
  World world{1};
  NodeId a = world.allocate_id();
  NodeId b = world.allocate_id();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace spider
