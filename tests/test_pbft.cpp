#include <gtest/gtest.h>

#include "consensus/pbft_replica.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

/// A replica process hosting just a PBFT engine; records each delivered
/// request with its own sequence number (batches flattened).
class PbftHost : public ComponentHost {
 public:
  PbftHost(World& w, Site site) : ComponentHost(w, w.allocate_id(), site) {}

  void start(PbftConfig cfg) {
    replica = std::make_unique<PbftReplica>(
        *this, std::move(cfg), [this](SeqNr first, const std::vector<Bytes>& batch) {
          for (const Bytes& m : batch) delivered.emplace_back(first++, m);
        });
  }

  std::unique_ptr<PbftReplica> replica;
  std::vector<std::pair<SeqNr, Bytes>> delivered;
};

struct PbftGroup {
  World world;
  std::vector<std::unique_ptr<PbftHost>> hosts;

  explicit PbftGroup(std::uint32_t n = 4, std::uint32_t f = 1,
                     std::vector<std::uint32_t> weights = {}, std::uint32_t quorum = 0,
                     std::uint64_t seed = 1, std::uint64_t window = 256)
      : world(seed) {
    std::vector<NodeId> ids;
    for (std::uint32_t i = 0; i < n; ++i) {
      // Replicas in distinct AZs of the same region, as in Spider.
      hosts.push_back(std::make_unique<PbftHost>(world, Site{Region::Virginia,
                                                             static_cast<std::uint8_t>(i % 4)}));
      ids.push_back(hosts.back()->id());
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      PbftConfig cfg;
      cfg.replicas = ids;
      cfg.my_index = i;
      cfg.f = f;
      cfg.weights = weights;
      cfg.quorum_weight = quorum;
      cfg.window = window;
      cfg.request_timeout = 500 * kMillisecond;
      cfg.view_change_timeout = kSecond;
      hosts[i]->start(cfg);
    }
  }

  /// Calls order(m) on every replica (as Spider's wrappers do).
  void order_everywhere(const Bytes& m) {
    for (auto& h : hosts) h->replica->order(m);
  }

  Bytes req(int i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    w.str("request");
    return std::move(w).take();
  }
};

TEST(Pbft, SingleRequestDeliveredEverywhere) {
  PbftGroup g;
  Bytes m = g.req(1);
  g.order_everywhere(m);
  g.world.run_for(kSecond);
  for (auto& h : g.hosts) {
    ASSERT_EQ(h->delivered.size(), 1u);
    EXPECT_EQ(h->delivered[0].first, 1u);
    EXPECT_EQ(h->delivered[0].second, m);
  }
}

TEST(Pbft, AgreesOnTotalOrderAcrossReplicas) {
  PbftGroup g;
  // Requests submitted in different interleavings at different replicas.
  for (int i = 0; i < 20; ++i) {
    Bytes m = g.req(i);
    for (std::size_t r = 0; r < g.hosts.size(); ++r) {
      g.hosts[(r + static_cast<std::size_t>(i)) % g.hosts.size()]->replica->order(m);
    }
  }
  g.world.run_for(5 * kSecond);
  ASSERT_EQ(g.hosts[0]->delivered.size(), 20u);
  for (auto& h : g.hosts) {
    ASSERT_EQ(h->delivered.size(), 20u);
    EXPECT_EQ(h->delivered, g.hosts[0]->delivered);  // A-Safety
  }
  // Gap-free, increasing seq numbers starting at 1 (A-Order).
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(g.hosts[0]->delivered[i].first, i + 1);
  }
}

TEST(Pbft, DuplicateOrderDeliveredOnce) {
  PbftGroup g;
  Bytes m = g.req(7);
  g.order_everywhere(m);
  g.order_everywhere(m);
  g.world.run_for(kSecond);
  g.order_everywhere(m);  // after delivery
  g.world.run_for(kSecond);
  for (auto& h : g.hosts) EXPECT_EQ(h->delivered.size(), 1u);
}

TEST(Pbft, IntraRegionLatencyIsMilliseconds) {
  PbftGroup g;
  Time start = g.world.now();
  g.order_everywhere(g.req(1));
  // Run only until the first delivery to measure agreement latency.
  while (g.hosts[0]->delivered.empty() && g.world.now() < kSecond) {
    g.world.queue().run_next();
  }
  ASSERT_FALSE(g.hosts[0]->delivered.empty());
  // Consensus over AZ links completes within a few ms (Spider's core bet).
  EXPECT_LT(g.world.now() - start, 20 * kMillisecond);
}

TEST(Pbft, ValidatorRejectsRequests) {
  PbftGroup g;
  for (auto& h : g.hosts) {
    h->replica->validate = [](BytesView m) { return m.size() > 10; };
  }
  Bytes small = {1, 2, 3};
  g.order_everywhere(small);
  g.world.run_for(2 * kSecond);
  for (auto& h : g.hosts) EXPECT_TRUE(h->delivered.empty());
}

TEST(Pbft, WindowLimitsPipelineUntilGc) {
  PbftGroup g(4, 1, {}, 0, 3, /*window=*/4);
  for (int i = 0; i < 10; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(2 * kSecond);
  // Only the first `window` instances can be proposed before gc.
  for (auto& h : g.hosts) EXPECT_EQ(h->delivered.size(), 4u);
  // gc releases the window stepwise; the rest follows (this is exactly how
  // Spider's agreement checkpoints drive consensus garbage collection).
  for (auto& h : g.hosts) h->replica->gc(5);
  g.world.run_for(2 * kSecond);
  for (auto& h : g.hosts) EXPECT_EQ(h->delivered.size(), 8u);
  for (auto& h : g.hosts) h->replica->gc(9);
  g.world.run_for(2 * kSecond);
  for (auto& h : g.hosts) EXPECT_EQ(h->delivered.size(), 10u);
}

TEST(Pbft, GcAdvancesFloorAndPrunes) {
  PbftGroup g;
  for (int i = 0; i < 10; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(3 * kSecond);
  ASSERT_EQ(g.hosts[0]->delivered.size(), 10u);
  for (auto& h : g.hosts) {
    h->replica->gc(6);  // forget < 6
    EXPECT_EQ(h->replica->floor(), 5u);
  }
  // Ordering continues after gc.
  g.order_everywhere(g.req(100));
  g.world.run_for(3 * kSecond);
  for (auto& h : g.hosts) {
    ASSERT_EQ(h->delivered.size(), 11u);
    EXPECT_EQ(h->delivered.back().first, 11u);
  }
}

TEST(Pbft, CrashedFollowerDoesNotBlockProgress) {
  PbftGroup g;
  g.world.net().set_node_down(g.hosts[3]->id(), true);  // follower crash
  for (int i = 0; i < 5; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(3 * kSecond);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(g.hosts[r]->delivered.size(), 5u) << "replica " << r;
  }
  EXPECT_TRUE(g.hosts[3]->delivered.empty());
}

TEST(Pbft, CrashedPrimaryTriggersViewChange) {
  PbftGroup g;
  g.world.net().set_node_down(g.hosts[0]->id(), true);  // primary of view 0
  for (int i = 0; i < 3; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(10 * kSecond);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_EQ(g.hosts[r]->delivered.size(), 3u) << "replica " << r;
    EXPECT_GE(g.hosts[r]->replica->view(), 1u);
    EXPECT_EQ(g.hosts[r]->delivered, g.hosts[1]->delivered);
  }
}

TEST(Pbft, MutePrimaryTriggersViewChange) {
  PbftGroup g;
  g.world.byzantine(g.hosts[0]->id()).mute = true;  // fail-silent Byzantine primary
  for (int i = 0; i < 3; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(10 * kSecond);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_EQ(g.hosts[r]->delivered.size(), 3u) << "replica " << r;
    EXPECT_GE(g.hosts[r]->replica->view(), 1u);
  }
}

TEST(Pbft, OrderingContinuesAfterViewChange) {
  PbftGroup g;
  g.world.byzantine(g.hosts[0]->id()).mute = true;
  g.order_everywhere(g.req(1));
  g.world.run_for(10 * kSecond);
  ASSERT_GE(g.hosts[1]->replica->view(), 1u);
  // New requests in the new view.
  for (int i = 2; i < 6; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(3 * kSecond);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_EQ(g.hosts[r]->delivered.size(), 5u) << "replica " << r;
    EXPECT_EQ(g.hosts[r]->delivered, g.hosts[1]->delivered);
  }
}

TEST(Pbft, PrimaryIdentityFollowsView) {
  PbftGroup g;
  EXPECT_TRUE(g.hosts[0]->replica->is_primary());
  EXPECT_FALSE(g.hosts[1]->replica->is_primary());
}

TEST(Pbft, DeterministicAcrossRuns) {
  auto run = [] {
    PbftGroup g(4, 1, {}, 0, 99);
    for (int i = 0; i < 10; ++i) g.order_everywhere(g.req(i));
    g.world.run_for(3 * kSecond);
    std::vector<std::pair<SeqNr, Bytes>> d = g.hosts[2]->delivered;
    return d;
  };
  EXPECT_EQ(run(), run());
}

// ---- weighted voting (BFT-WV / WHEAT configuration) ----------------------

struct WeightedGroup : PbftGroup {
  // n=5, f=1, Vmax=2 on the two "fast" replicas, quorum weight 5 (WHEAT).
  WeightedGroup() : PbftGroup(5, 1, {2, 2, 1, 1, 1}, 5, 11) {}
};

TEST(PbftWeighted, OrdersWithWeightedQuorums) {
  WeightedGroup g;
  for (int i = 0; i < 5; ++i) g.order_everywhere(g.req(i));
  g.world.run_for(3 * kSecond);
  for (auto& h : g.hosts) {
    EXPECT_EQ(h->delivered.size(), 5u);
    EXPECT_EQ(h->delivered, g.hosts[0]->delivered);
  }
}

TEST(PbftWeighted, SurvivesLightReplicaCrash) {
  WeightedGroup g;
  g.world.net().set_node_down(g.hosts[4]->id(), true);  // weight-1 crash
  g.order_everywhere(g.req(1));
  g.world.run_for(3 * kSecond);
  EXPECT_EQ(g.hosts[0]->delivered.size(), 1u);
}

TEST(PbftWeighted, SurvivesHeavyReplicaCrash) {
  WeightedGroup g;
  g.world.net().set_node_down(g.hosts[1]->id(), true);  // weight-2 crash
  g.order_everywhere(g.req(1));
  g.world.run_for(5 * kSecond);
  // Remaining weight 2+1+1+1 = 5 = quorum: progress must continue.
  EXPECT_EQ(g.hosts[0]->delivered.size(), 1u);
}

// Byzantine-equivocation containment: a faulty non-primary replica sending
// garbage must not break agreement among correct replicas.
class GarbageSender : public ComponentHost {
 public:
  GarbageSender(World& w, Site s) : ComponentHost(w, w.allocate_id(), s) {}
  void on_message(NodeId, BytesView) override {}
  void spam(const std::vector<NodeId>& targets) {
    for (NodeId t : targets) {
      Writer w;
      w.u32(tags::kPbft);
      w.u8(1);          // PrePrepare type
      w.u64(0);         // view
      w.u64(1);         // seq
      w.bytes(Bytes{9, 9, 9});
      // no valid MAC appended -> must be rejected
      w.raw(Bytes(16, 0xee));
      send_to(t, w.data());
    }
  }
};

TEST(Pbft, ForgedPrePrepareRejected) {
  PbftGroup g;
  GarbageSender attacker(g.world, Site{Region::Virginia, 0});
  std::vector<NodeId> targets;
  for (auto& h : g.hosts) targets.push_back(h->id());
  attacker.spam(targets);
  g.world.run_for(kSecond);
  for (auto& h : g.hosts) EXPECT_TRUE(h->delivered.empty());

  // The group still works normally afterwards.
  g.order_everywhere(g.req(1));
  g.world.run_for(kSecond);
  for (auto& h : g.hosts) EXPECT_EQ(h->delivered.size(), 1u);
}

TEST(Pbft, EmptyAndUnknownMessagesDropped) {
  PbftGroup g;
  GarbageSender attacker(g.world, Site{Region::Virginia, 0});
  // Raw garbage without even a valid component tag.
  for (auto& h : g.hosts) {
    attacker.send_to(h->id(), Bytes{});
    attacker.send_to(h->id(), Bytes{0xff});
    attacker.send_to(h->id(), Bytes(100, 0xab));
  }
  g.world.run_for(kSecond);
  g.order_everywhere(g.req(1));
  g.world.run_for(kSecond);
  for (auto& h : g.hosts) EXPECT_EQ(h->delivered.size(), 1u);
}

}  // namespace
}  // namespace spider
