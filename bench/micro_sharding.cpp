// Aggregate write-throughput scaling across shard counts {1, 2, 4}.
//
// Fixed per-shard load: each grid point runs kClientsPerShard routed
// clients per shard (keys hash uniformly over the ShardMap, so every
// shard sees the same offered load), all saturating the ordered-write
// path. A single Spider core is sequencer-bound — its agreement group
// signs one commit-channel message per execution group per consensus
// instance — so standing up N independent cores behind the keyspace
// router must scale aggregate throughput near-linearly. This is the
// repo's sharding acceptance check: it fails (exit 1) if 4 shards stop
// delivering >1.5x the single-shard throughput.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "shard/sharded_system.hpp"

namespace spider::bench {
namespace {

double run_one(std::uint32_t shards, int clients_per_shard) {
  World world(4242);  // same seed across all grid points
  ShardedTopology topo;
  topo.shards = shards;
  // Two short-WAN execution groups per shard (as in micro_batching): the
  // request path stays cheap, the per-core agreement group is the ceiling.
  topo.base.exec_regions = {Region::Virginia, Region::Ohio};
  topo.base.commit_capacity = 128;
  topo.base.ag_win = 128;
  ShardedSpiderSystem sys(world, topo);

  const Time measure_from = 2 * kSecond;
  const Time stop_at = 6 * kSecond;
  const int total_clients = clients_per_shard * static_cast<int>(shards);

  struct Ctx {
    std::unique_ptr<ShardedClient> client;
    std::uint64_t key_seq = 0;
  };
  std::vector<Ctx> ctxs;
  for (int i = 0; i < total_clients; ++i) {
    Region r = (i % 2 == 0) ? Region::Virginia : Region::Ohio;
    ctxs.push_back(Ctx{sys.make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), 0});
  }

  // Open-loop load well above a single core's service rate (cf.
  // micro_batching): completed ops measure the service rate, not the
  // generator. Keys hash across shards, so routing spreads the work.
  std::uint64_t completed = 0;
  const Duration interval = 2 * kMillisecond;
  std::function<void(std::size_t, Duration)> schedule = [&](std::size_t i, Duration delay) {
    world.queue().schedule_after(delay, [&, i] {
      if (world.now() >= stop_at) return;
      Ctx& c = ctxs[i];
      std::string key = "c" + std::to_string(i) + "-k" + std::to_string(c.key_seq++ % 32);
      c.client->put(key, payload_200b(), [&](Bytes, Duration) {
        if (world.now() >= measure_from && world.now() < stop_at) ++completed;
      });
      schedule(i, interval);
    });
  };
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    schedule(i, static_cast<Duration>(i) * interval / static_cast<Duration>(ctxs.size() + 1));
  }
  world.run_until(stop_at);

  return static_cast<double>(completed) /
         (static_cast<double>(stop_at - measure_from) / kSecond);
}

}  // namespace
}  // namespace spider::bench

int main() {
  using namespace spider;
  using namespace spider::bench;

  const int kClientsPerShard = 32;
  std::printf("Sharded Spider write throughput (fixed per-shard load: %d clients/shard)\n",
              kClientsPerShard);
  std::printf("%-8s %14s %10s\n", "shards", "agg writes/s", "scaling");

  double base = 0;
  double at4 = 0;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    double ops = run_one(shards, kClientsPerShard);
    if (shards == 1) base = ops;
    if (shards == 4) at4 = ops;
    std::printf("%-8u %14.0f %9.2fx\n", shards, ops, base > 0 ? ops / base : 0.0);
  }

  if (at4 <= 1.5 * base) {
    std::printf("FAIL: 4 shards (%.0f ops/s) not >1.5x 1 shard (%.0f ops/s)\n", at4, base);
    return 1;
  }
  std::printf("OK: sharding speedup %.2fx at 4 shards\n", at4 / base);
  return 0;
}
