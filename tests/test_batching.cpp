// Request batching through the agreement path.
//
// Covers the batching contract end to end: batches cut by size and by
// timer, singleton batches behaving exactly like the unbatched path, view
// changes carrying an in-flight (prepared but uncommitted) batch, and
// batched-vs-unbatched result equivalence for a full Spider deployment
// under the same seeded World.
#include <gtest/gtest.h>

#include "consensus/pbft_replica.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider {
namespace {

Bytes req(int i) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(i));
  w.str("batched-request");
  return std::move(w).take();
}

/// PBFT host recording batch-granular deliveries plus the flattened
/// per-request stream derived from them.
class BatchHost : public ComponentHost {
 public:
  BatchHost(World& w, Site site) : ComponentHost(w, w.allocate_id(), site) {}

  void start(PbftConfig cfg) {
    replica = std::make_unique<PbftReplica>(
        *this, std::move(cfg),
        PbftReplica::BatchDeliverFn([this](SeqNr first, const std::vector<Bytes>& batch) {
          batches.emplace_back(first, batch);
          SeqNr s = first;
          for (const Bytes& m : batch) flat.emplace_back(s++, m);
        }));
  }

  std::unique_ptr<PbftReplica> replica;
  std::vector<std::pair<SeqNr, std::vector<Bytes>>> batches;
  std::vector<std::pair<SeqNr, Bytes>> flat;
};

struct BatchGroup {
  World world;
  std::vector<std::unique_ptr<BatchHost>> hosts;

  BatchGroup(std::uint64_t max_batch, Duration batch_delay, std::uint64_t seed = 1,
             std::uint32_t n = 4, std::uint32_t f = 1)
      : world(seed) {
    std::vector<NodeId> ids;
    for (std::uint32_t i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<BatchHost>(
          world, Site{Region::Virginia, static_cast<std::uint8_t>(i % 4)}));
      ids.push_back(hosts.back()->id());
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      PbftConfig cfg;
      cfg.replicas = ids;
      cfg.my_index = i;
      cfg.f = f;
      cfg.max_batch = max_batch;
      cfg.batch_delay = batch_delay;
      cfg.request_timeout = kSecond;
      cfg.view_change_timeout = 2 * kSecond;
      hosts[i]->start(cfg);
    }
  }

  void order_everywhere(const Bytes& m) {
    for (auto& h : hosts) h->replica->order(m);
  }
};

TEST(Batching, BatchCutBySize) {
  // batch_delay is huge: only the size trigger can cut.
  BatchGroup g(4, 10 * kSecond);
  for (int i = 0; i < 4; ++i) g.order_everywhere(req(i));
  g.world.run_for(kSecond);

  for (auto& h : g.hosts) {
    ASSERT_EQ(h->batches.size(), 1u);
    EXPECT_EQ(h->batches[0].first, 1u);  // first logical seq
    EXPECT_EQ(h->batches[0].second.size(), 4u);
    EXPECT_EQ(h->batches, g.hosts[0]->batches);
  }
  // Flattened stream is gap-free and request-granular.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(g.hosts[0]->flat[i].first, i + 1);
  }
}

TEST(Batching, BatchCutByTimer) {
  // 3 pending < max_batch 8: only the timer can cut.
  BatchGroup g(8, 50 * kMillisecond);
  for (int i = 0; i < 3; ++i) g.order_everywhere(req(i));

  g.world.run_for(20 * kMillisecond);
  for (auto& h : g.hosts) EXPECT_TRUE(h->batches.empty()) << "cut before batch_delay expired";

  g.world.run_for(kSecond);
  for (auto& h : g.hosts) {
    ASSERT_EQ(h->batches.size(), 1u);
    EXPECT_EQ(h->batches[0].first, 1u);
    EXPECT_EQ(h->batches[0].second.size(), 3u);  // partial batch, timer-cut
  }
}

TEST(Batching, SingletonBatchesMatchUnbatchedPath) {
  // max_batch = 1 must reproduce the unbatched per-request path exactly:
  // same seed, same workload, compared against replicas left at the default
  // config whose consumer flattens each delivery into per-request seqs.
  BatchGroup batched(1, 0, /*seed=*/9);

  World world(9);
  struct Host : ComponentHost {
    using ComponentHost::ComponentHost;
    std::unique_ptr<PbftReplica> replica;
    std::vector<std::pair<SeqNr, Bytes>> delivered;
  };
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<Host>(world, world.allocate_id(),
                                           Site{Region::Virginia, static_cast<std::uint8_t>(i % 4)}));
    ids.push_back(hosts.back()->id());
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    PbftConfig cfg;
    cfg.replicas = ids;
    cfg.my_index = i;
    cfg.f = 1;
    cfg.request_timeout = kSecond;
    cfg.view_change_timeout = 2 * kSecond;
    Host* h = hosts[i].get();
    h->replica = std::make_unique<PbftReplica>(
        *h, cfg, [h](SeqNr first, const std::vector<Bytes>& batch) {
          for (const Bytes& m : batch) h->delivered.emplace_back(first++, m);
        });
  }

  for (int i = 0; i < 20; ++i) {
    Bytes m = req(i);
    batched.order_everywhere(m);
    for (auto& h : hosts) h->replica->order(m);
  }
  batched.world.run_for(5 * kSecond);
  world.run_for(5 * kSecond);

  ASSERT_EQ(batched.hosts[0]->flat.size(), 20u);
  for (auto& h : batched.hosts) {
    EXPECT_EQ(h->flat, hosts[0]->delivered);
    for (const auto& b : h->batches) EXPECT_EQ(b.second.size(), 1u);
  }
}

TEST(Batching, ViewChangeCarriesInFlightBatch) {
  // A full batch reaches prepared (but not committed) state, the primary
  // goes silent, and the next view must re-propose the whole batch from
  // the prepared certificates carried in the view-change messages.
  BatchGroup g(4, 10 * kSecond, /*seed=*/5);
  g.world.net().set_node_down(g.hosts[3]->id(), true);  // only 3 live replicas

  for (int i = 0; i < 4; ++i) g.order_everywhere(req(i));
  // The primary cut the batch (size trigger) and broadcast the pre-prepare;
  // muting it now suppresses its commit, so followers h1/h2 reach prepared
  // with only 2 commit votes: the batch stays in flight.
  g.world.byzantine(g.hosts[0]->id()).mute = true;
  g.world.run_for(3 * kSecond);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(g.hosts[i]->flat.empty()) << "batch must not commit without the primary";
  }

  // The revived follower supplies the third view-change vote.
  g.world.net().set_node_down(g.hosts[3]->id(), false);
  g.world.run_for(20 * kSecond);

  for (std::size_t i = 1; i < 4; ++i) {
    auto& h = g.hosts[i];
    ASSERT_EQ(h->flat.size(), 4u) << "replica " << i;
    EXPECT_GE(h->replica->view(), 1u);
    EXPECT_EQ(h->flat, g.hosts[1]->flat);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(h->flat[k].first, k + 1);
      EXPECT_EQ(h->flat[k].second, req(static_cast<int>(k)));
    }
    // The prepared batch survived the view change as one instance.
    ASSERT_EQ(h->batches.size(), 1u);
    EXPECT_EQ(h->batches[0].second.size(), 4u);
  }
}

// ---- Spider end-to-end equivalence --------------------------------------

struct SpiderRun {
  std::vector<bool> write_ok;
  Bytes app_snapshot;  // KV state of one execution replica
  bool all_replicas_agree = false;
};

SpiderRun run_spider_workload(std::uint64_t max_batch) {
  World world(77);  // identical seed for every batching configuration
  SpiderTopology topo;
  topo.exec_regions = {Region::Virginia, Region::Tokyo};
  topo.max_batch = max_batch;
  topo.batch_delay = max_batch > 1 ? 2 * kMillisecond : 0;
  topo.ka = 8;
  topo.ke = 8;
  topo.commit_capacity = 32;
  SpiderSystem sys(world, topo);

  std::vector<std::unique_ptr<SpiderClient>> clients;
  clients.push_back(sys.make_client(Site{Region::Virginia, 0}));
  clients.push_back(sys.make_client(Site{Region::Tokyo, 0}));
  clients.push_back(sys.make_client(Site{Region::Tokyo, 1}));

  SpiderRun run;
  const int kWritesPerClient = 6;
  std::size_t done = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (int k = 0; k < kWritesPerClient; ++k) {
      std::string key = "c" + std::to_string(c) + "-k" + std::to_string(k);
      std::string val = "v" + std::to_string(c * 100 + k);
      std::size_t slot = run.write_ok.size();
      run.write_ok.push_back(false);
      clients[c]->write(kv_put(key, to_bytes(val)), [&run, slot, &done](Bytes reply, Duration) {
        run.write_ok[slot] = kv_decode_reply(reply).ok;
        ++done;
      });
    }
  }
  Time deadline = world.now() + 120 * kSecond;
  while (done < clients.size() * kWritesPerClient && world.now() < deadline) {
    world.queue().run_next();
  }
  world.run_for(5 * kSecond);  // let trailing groups finish

  run.app_snapshot = sys.exec(1, 0).app().snapshot();
  run.all_replicas_agree = true;
  for (GroupId g : sys.group_ids()) {
    for (std::size_t i = 0; i < sys.group_size(g); ++i) {
      if (!(sys.exec(g, i).app().snapshot() == run.app_snapshot)) {
        run.all_replicas_agree = false;
      }
    }
  }
  return run;
}

TEST(Batching, BatchedAndUnbatchedSpiderConverge) {
  SpiderRun unbatched = run_spider_workload(1);
  SpiderRun batched = run_spider_workload(16);

  for (bool ok : unbatched.write_ok) EXPECT_TRUE(ok);
  for (bool ok : batched.write_ok) EXPECT_TRUE(ok);
  EXPECT_TRUE(unbatched.all_replicas_agree);
  EXPECT_TRUE(batched.all_replicas_agree);
  // Same writes, same final application state, batched or not.
  EXPECT_EQ(batched.app_snapshot, unbatched.app_snapshot);
}

}  // namespace
}  // namespace spider
