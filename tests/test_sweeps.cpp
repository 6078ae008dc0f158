// Parameterized property sweeps across protocol configurations:
//   - PBFT with n = 4/7/10 (f = 1/2/3), crash-fault subsets
//   - IRMC grid over (implementation x group sizes x capacity)
//   - full Spider over (fa, fe, IRMC kind, z)
// Each instance checks the same invariants (safety, validity, liveness),
// so every grid point is a distinct behaviour check rather than a copy.
#include <gtest/gtest.h>

#include "consensus/pbft_replica.hpp"
#include "irmc/irmc.hpp"
#include "shard/sharded_system.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider {
namespace {

// ------------------------------------------------------------ PBFT sweep

struct PbftParam {
  std::uint32_t f;
  std::uint32_t crashes;  // how many followers to crash (<= f)
  std::uint64_t max_batch;
  std::string label() const {
    return "f" + std::to_string(f) + "_crash" + std::to_string(crashes) + "_mb" +
           std::to_string(max_batch);
  }
};

class PbftSweep : public ::testing::TestWithParam<PbftParam> {};

TEST_P(PbftSweep, TotalOrderWithCrashFaults) {
  const PbftParam param = GetParam();
  const std::uint32_t n = 3 * param.f + 1;
  World world(1000 + param.f * 10 + param.crashes);

  struct Host : ComponentHost {
    using ComponentHost::ComponentHost;
    std::unique_ptr<PbftReplica> replica;
    std::vector<std::pair<SeqNr, Bytes>> delivered;
  };
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<Host>(world, world.allocate_id(),
                                           Site{Region::Virginia, static_cast<std::uint8_t>(i % 4)}));
    ids.push_back(hosts.back()->id());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    PbftConfig cfg;
    cfg.replicas = ids;
    cfg.my_index = i;
    cfg.f = param.f;
    cfg.max_batch = param.max_batch;
    cfg.batch_delay = param.max_batch > 1 ? 5 * kMillisecond : 0;
    cfg.request_timeout = kSecond;
    cfg.view_change_timeout = 2 * kSecond;
    Host* h = hosts[i].get();
    h->replica = std::make_unique<PbftReplica>(
        *h, cfg, [h](SeqNr first, const std::vector<Bytes>& batch) {
          for (const Bytes& m : batch) h->delivered.emplace_back(first++, m);
        });
  }
  // Crash the last `crashes` followers (never the view-0 primary).
  for (std::uint32_t c = 0; c < param.crashes; ++c) {
    world.net().set_node_down(hosts[n - 1 - c]->id(), true);
  }

  const int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    Bytes m = std::move(w).take();
    for (auto& h : hosts) h->replica->order(m);
  }
  world.run_for(10 * kSecond);

  // All live replicas agree on an identical gap-free order (A-Safety/A-Order).
  const auto& reference = hosts[0]->delivered;
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kRequests));
  for (std::uint32_t i = 0; i < n - param.crashes; ++i) {
    EXPECT_EQ(hosts[i]->delivered, reference) << "replica " << i;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].first, i + 1);
  }
}

std::vector<PbftParam> pbft_grid() {
  // Full cross product: every fault configuration also runs batched, so
  // each invariant holds at max_batch 1 (legacy path), 4, and 16.
  std::vector<PbftParam> grid;
  for (const auto& [f, crashes] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {1, 0}, {1, 1}, {2, 0}, {2, 2}, {3, 0}, {3, 3}}) {
    for (std::uint64_t mb : {1, 4, 16}) grid.push_back(PbftParam{f, crashes, mb});
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, PbftSweep, ::testing::ValuesIn(pbft_grid()),
                         [](const ::testing::TestParamInfo<PbftParam>& info) {
                           return info.param.label();
                         });

// ------------------------------------------------------------ IRMC sweep

struct IrmcParam {
  IrmcKind kind;
  std::uint32_t ns, nr, fs, fr;
  Position capacity;
  std::string label() const {
    return std::string(kind == IrmcKind::ReceiverCollect ? "RC" : "SC") + "_s" +
           std::to_string(ns) + "r" + std::to_string(nr) + "_cap" + std::to_string(capacity);
  }
};

class IrmcSweep : public ::testing::TestWithParam<IrmcParam> {};

TEST_P(IrmcSweep, QuorumDeliveryAndFlowControlInvariants) {
  const IrmcParam p = GetParam();
  World world(500 + p.ns * 10 + p.capacity);
  IrmcConfig cfg;
  std::vector<std::unique_ptr<ComponentHost>> shosts, rhosts;
  for (std::uint32_t i = 0; i < p.ns; ++i) {
    shosts.push_back(std::make_unique<ComponentHost>(world, world.allocate_id(),
                                                     Site{Region::Ireland, static_cast<std::uint8_t>(i % 3)}));
    cfg.senders.push_back(shosts.back()->id());
  }
  for (std::uint32_t i = 0; i < p.nr; ++i) {
    rhosts.push_back(std::make_unique<ComponentHost>(world, world.allocate_id(),
                                                     Site{Region::Oregon, static_cast<std::uint8_t>(i % 3)}));
    cfg.receivers.push_back(rhosts.back()->id());
  }
  cfg.fs = p.fs;
  cfg.fr = p.fr;
  cfg.capacity = p.capacity;
  cfg.channel_tag = tags::kIrmc | 9;

  std::vector<std::unique_ptr<IrmcSenderEndpoint>> tx;
  std::vector<std::unique_ptr<IrmcReceiverEndpoint>> rx;
  for (auto& h : shosts) tx.push_back(make_irmc_sender(p.kind, *h, cfg));
  for (auto& h : rhosts) rx.push_back(make_irmc_receiver(p.kind, *h, cfg));

  // Send 2*capacity messages; consume in order, moving the receiver window.
  const Position total = 2 * p.capacity;
  for (Position pos = 1; pos <= total; ++pos) {
    Writer w;
    w.u64(pos);
    Bytes m = std::move(w).take();
    for (auto& t : tx) t->send(3, pos, m, {});
  }

  std::vector<Position> got;
  std::function<void(Position)> consume = [&](Position pos) {
    if (pos > total) return;
    rx[0]->receive(3, pos, [&, pos](RecvResult res) {
      ASSERT_FALSE(res.too_old);
      Reader r(res.message);
      got.push_back(r.u64());
      // fr+1 receivers must permit the move for the sender window to shift.
      for (std::uint32_t i = 0; i <= p.fr && i < p.nr; ++i) {
        rx[i]->move_window(3, pos + 1);
      }
      consume(pos + 1);
    });
  };
  consume(1);
  world.run_for(20 * kSecond);

  // FIFO, gap-free, complete (Liveness I + II under window recycling).
  ASSERT_EQ(got.size(), static_cast<std::size_t>(total));
  for (Position i = 0; i < total; ++i) EXPECT_EQ(got[i], i + 1);
  // The sender window followed the fr+1 receiver moves.
  EXPECT_GE(tx[0]->window_start(3), total - p.capacity);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IrmcSweep,
    ::testing::Values(IrmcParam{IrmcKind::ReceiverCollect, 3, 3, 1, 1, 2},
                      IrmcParam{IrmcKind::ReceiverCollect, 4, 3, 1, 1, 8},
                      IrmcParam{IrmcKind::ReceiverCollect, 5, 5, 2, 2, 4},
                      IrmcParam{IrmcKind::ReceiverCollect, 7, 5, 2, 2, 16},
                      IrmcParam{IrmcKind::SenderCollect, 3, 3, 1, 1, 2},
                      IrmcParam{IrmcKind::SenderCollect, 4, 3, 1, 1, 8},
                      IrmcParam{IrmcKind::SenderCollect, 5, 5, 2, 2, 4},
                      IrmcParam{IrmcKind::SenderCollect, 7, 5, 2, 2, 16}),
    [](const ::testing::TestParamInfo<IrmcParam>& info) { return info.param.label(); });

// ------------------------------------------------------------ Spider sweep

struct SpiderParam {
  std::uint32_t fa, fe;
  IrmcKind kind;
  std::uint64_t max_batch;
  std::string label() const {
    return "fa" + std::to_string(fa) + "_fe" + std::to_string(fe) +
           (kind == IrmcKind::ReceiverCollect ? "_RC" : "_SC") + "_mb" +
           std::to_string(max_batch);
  }
};

class SpiderSweep : public ::testing::TestWithParam<SpiderParam> {};

TEST_P(SpiderSweep, EndToEndWriteReadAcrossConfigurations) {
  const SpiderParam p = GetParam();
  World world(2000 + p.fa * 10 + p.fe + p.max_batch * 100);
  SpiderTopology topo;
  topo.fa = p.fa;
  topo.fe = p.fe;
  topo.irmc_kind = p.kind;
  topo.exec_regions = {Region::Virginia, Region::Tokyo};
  topo.ka = 8;
  topo.ke = 8;
  topo.commit_capacity = 16;
  topo.max_batch = p.max_batch;
  topo.batch_delay = p.max_batch > 1 ? 5 * kMillisecond : 0;
  SpiderSystem sys(world, topo);

  auto client = sys.make_client(Site{Region::Tokyo, 0});
  // Group sizes follow fa/fe.
  EXPECT_EQ(sys.agreement_size(), 3 * p.fa + 1);
  EXPECT_EQ(client->group().members.size(), 2 * p.fe + 1);

  // Several clients write concurrently so batched configurations actually
  // form multi-request batches (each client keeps one ordered op in
  // flight); every write must succeed.
  std::vector<std::unique_ptr<SpiderClient>> extra;
  extra.push_back(sys.make_client(Site{Region::Virginia, 0}));
  extra.push_back(sys.make_client(Site{Region::Virginia, 1}));
  extra.push_back(sys.make_client(Site{Region::Tokyo, 1}));
  std::size_t oks = 0;
  std::size_t done = 0;
  auto tally = [&](Bytes reply, Duration) {
    if (kv_decode_reply(reply).ok) ++oks;
    ++done;
  };
  const std::size_t kConcurrent = extra.size() + 1;
  bool ok = false;
  Duration lat = -1;
  client->write(kv_put("k", to_bytes(std::string("v"))), [&](Bytes reply, Duration l) {
    ok = kv_decode_reply(reply).ok;
    lat = l;
    tally(std::move(reply), l);
  });
  for (std::size_t c = 0; c < extra.size(); ++c) {
    extra[c]->write(kv_put("x" + std::to_string(c), to_bytes(std::string("v"))), tally);
  }
  Time deadline = world.now() + 30 * kSecond;
  while (done < kConcurrent && world.now() < deadline) world.queue().run_next();
  ASSERT_TRUE(ok);
  EXPECT_EQ(oks, kConcurrent);

  // Crash fe execution replicas + fa agreement replicas: still live.
  GroupId g = client->group().group;
  for (std::uint32_t i = 0; i < p.fe; ++i) {
    world.net().set_node_down(sys.exec(g, i).id(), true);
  }
  for (std::uint32_t i = 0; i < p.fa; ++i) {
    world.net().set_node_down(sys.agreement(3 * p.fa - i).id(), true);  // followers
  }
  ok = false;
  lat = -1;
  client->write(kv_put("k2", to_bytes(std::string("v2"))), [&](Bytes reply, Duration l) {
    ok = kv_decode_reply(reply).ok;
    lat = l;
  });
  deadline = world.now() + 30 * kSecond;
  while (lat < 0 && world.now() < deadline) world.queue().run_next();
  EXPECT_TRUE(ok) << "write must survive fa+fe crash faults";
}

std::vector<SpiderParam> spider_grid() {
  std::vector<SpiderParam> grid;
  for (const auto& base : std::vector<SpiderParam>{{1, 1, IrmcKind::ReceiverCollect, 0},
                                                   {1, 2, IrmcKind::ReceiverCollect, 0},
                                                   {2, 1, IrmcKind::ReceiverCollect, 0},
                                                   {2, 2, IrmcKind::ReceiverCollect, 0},
                                                   {1, 1, IrmcKind::SenderCollect, 0},
                                                   {2, 2, IrmcKind::SenderCollect, 0}}) {
    for (std::uint64_t mb : {1, 4, 16}) {
      grid.push_back(SpiderParam{base.fa, base.fe, base.kind, mb});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpiderSweep, ::testing::ValuesIn(spider_grid()),
    [](const ::testing::TestParamInfo<SpiderParam>& info) { return info.param.label(); });

// ------------------------------------------------------ Sharded Spider sweep

struct ShardedParam {
  std::uint32_t shards;
  std::uint64_t max_batch;
  std::string label() const {
    return "shards" + std::to_string(shards) + "_mb" + std::to_string(max_batch);
  }
};

class ShardedSweep : public ::testing::TestWithParam<ShardedParam> {};

TEST_P(ShardedSweep, EveryShardConvergesUnderCrossShardLoad) {
  const ShardedParam p = GetParam();
  World world(3000 + p.shards * 10 + p.max_batch);
  ShardedTopology topo;
  topo.shards = p.shards;
  topo.base.exec_regions = {Region::Virginia, Region::Tokyo};
  topo.base.ka = 8;
  topo.base.ke = 8;
  topo.base.commit_capacity = 16;
  topo.base.max_batch = p.max_batch;
  topo.base.batch_delay = p.max_batch > 1 ? 5 * kMillisecond : 0;
  ShardedSpiderSystem sys(world, topo);

  // Routed clients in two regions write keys that hash across every shard.
  std::vector<std::unique_ptr<ShardedClient>> clients;
  clients.push_back(sys.make_client(Site{Region::Virginia, 0}));
  clients.push_back(sys.make_client(Site{Region::Tokyo, 0}));
  clients.push_back(sys.make_client(Site{Region::Virginia, 1}));

  const int kWritesPerClient = 4;
  std::vector<std::string> all_keys;
  std::size_t want = clients.size() * kWritesPerClient;
  std::size_t done = 0, oks = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (int i = 0; i < kWritesPerClient; ++i) {
      std::string key = "sw-c" + std::to_string(c) + "-k" + std::to_string(i);
      all_keys.push_back(key);
      clients[c]->put(key, to_bytes(std::string("v")), [&](Bytes reply, Duration) {
        if (kv_decode_reply(reply).ok) ++oks;
        ++done;
      });
    }
  }
  Time deadline = world.now() + 60 * kSecond;
  while (done < want && world.now() < deadline) world.queue().run_next();
  ASSERT_EQ(done, want) << "not every client got a reply";
  EXPECT_EQ(oks, want);

  // A cross-shard MGET observes every write, with a per-key shard seq.
  bool mget_done = false;
  clients[0]->mget(all_keys, [&](std::vector<ShardedClient::MgetEntry> entries, Duration) {
    mget_done = true;
    ASSERT_EQ(entries.size(), all_keys.size());
    for (const auto& e : entries) {
      EXPECT_TRUE(e.ok) << e.key;
      EXPECT_GE(e.shard_seq, 1u) << e.key;
      EXPECT_LT(e.shard, p.shards) << e.key;
    }
  });
  deadline = world.now() + 60 * kSecond;
  while (!mget_done && world.now() < deadline) world.queue().run_next();
  ASSERT_TRUE(mget_done);

  // Convergence per shard: after the commit channels drain, every execution
  // replica of a shard holds an identical application state (writes execute
  // at every group; reads never diverge it).
  world.run_for(5 * kSecond);
  for (std::uint32_t s = 0; s < p.shards; ++s) {
    SpiderSystem& core = sys.core(s);
    Bytes reference;
    bool first = true;
    for (GroupId g : core.group_ids()) {
      for (std::size_t i = 0; i < core.group_size(g); ++i) {
        Bytes snap = core.exec(g, i).app().snapshot();
        if (first) {
          reference = std::move(snap);
          first = false;
        } else {
          EXPECT_EQ(snap, reference) << "shard " << s << " group " << g << " replica " << i;
        }
      }
    }
  }
}

std::vector<ShardedParam> sharded_grid() {
  std::vector<ShardedParam> grid;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    for (std::uint64_t mb : {1, 4}) grid.push_back(ShardedParam{shards, mb});
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardedSweep, ::testing::ValuesIn(sharded_grid()),
    [](const ::testing::TestParamInfo<ShardedParam>& info) { return info.param.label(); });

}  // namespace
}  // namespace spider
