// Live-resharding cost: migration pause and client-visible throughput dip.
//
// A 4-shard resharding deployment serves closed-loop writers while a slice
// of one shard's range (a quarter of it, ~1/16 of the keyspace — moving a
// whole uniform range would permanently double the gainer's load and
// conflate rebalance-induced imbalance with migration cost) migrates
// between shards mid-run. Two costs are measured:
//
//   - migration pause: sim-time gap between MigrateOut committing (range cut
//     at the loser) and MigrateIn committing (range served by the gainer) —
//     the window in which BOTH shards redirect the range's keys;
//   - throughput dip: the worst 500 ms completion bucket around the
//     migration versus the steady-state bucket mean, plus the post-recovery
//     ratio. Redirect chasing and cancel-and-reroute bound the dip; a
//     regression here means clients are stalling on stale routes.
//
// With --gate the binary fails (exit 1) if the migration does not complete, the pause exceeds
// 1.5 s, or throughput fails to recover to 70% of steady state.
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench/harness.hpp"
#include "shard/sharded_system.hpp"

namespace spider::bench {
namespace {

constexpr std::uint64_t kSeed = 777;
constexpr Duration kBucket = 500 * kMillisecond;
constexpr Time kMeasureFrom = 2 * kSecond;
constexpr Time kMigrateAt = 5 * kSecond;
constexpr Time kStopAt = 12 * kSecond;
// Buckets overlapping [kMigrateAt, kDipWindowEnd) score the dip; buckets
// before kMigrateAt or at/after kDipWindowEnd form the steady baseline.
constexpr Time kDipWindowEnd = 9 * kSecond;

struct Result {
  bool migration_ok = false;
  double pause_ms = 0;
  double steady = 0;    // mean steady-state bucket, ops/s
  double dip = 0;       // worst migration-window bucket / steady
  double recovery = 0;  // mean post-window bucket / steady
};

Result run() {
  World world(kSeed);
  ShardedTopology topo;
  topo.shards = 4;
  topo.resharding = true;
  topo.base.exec_regions = {Region::Virginia, Region::Ohio};
  topo.base.commit_capacity = 128;
  topo.base.ag_win = 128;
  ShardedSpiderSystem sys(world, topo);

  constexpr int kClients = 48;
  struct Ctx {
    std::unique_ptr<ShardedClient> client;
    std::uint64_t seq = 0;
  };
  std::vector<Ctx> ctxs;
  for (int i = 0; i < kClients; ++i) {
    Region r = (i % 2 == 0) ? Region::Virginia : Region::Ohio;
    ctxs.push_back(Ctx{sys.make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), 0});
  }

  std::vector<std::uint64_t> buckets(static_cast<std::size_t>(kStopAt / kBucket), 0);
  // Closed loop: each completion immediately issues the next put, so a
  // stalled route shows up as missing completions, not queue growth.
  std::function<void(std::size_t)> pump = [&](std::size_t i) {
    if (world.now() >= kStopAt) return;
    Ctx& c = ctxs[i];
    char key[24];
    std::snprintf(key, sizeof key, "c%zu-k%llu", i,
                  static_cast<unsigned long long>(c.seq++ % 32));
    c.client->put(key, payload_200b(), [&, i](Bytes, Duration) {
      const std::size_t b = static_cast<std::size_t>(world.now() / kBucket);
      if (world.now() >= kMeasureFrom && b < buckets.size()) ++buckets[b];
      pump(i);
    });
  };
  for (std::size_t i = 0; i < ctxs.size(); ++i) pump(i);

  Result res;
  world.queue().schedule_at(kMigrateAt, [&] {
    // Move the first quarter of shard 1's range to its neighbor.
    const std::vector<ShardRange>& ranges = sys.shard_map().ranges();
    const std::uint64_t lo = ranges[1].start;
    const std::uint64_t hi = lo + (ranges[2].start - lo) / 4;
    const std::uint32_t target = (ranges[1].shard + 1) % sys.shard_count();
    sys.migrate_range(lo, hi, target, [&](bool ok) { res.migration_ok = ok; });
  });
  world.run_until(kStopAt);

  res.pause_ms = static_cast<double>(sys.last_migration_pause()) / kMillisecond;

  const std::size_t first = static_cast<std::size_t>(kMeasureFrom / kBucket);
  const std::size_t dip_from = static_cast<std::size_t>(kMigrateAt / kBucket);
  const std::size_t dip_to = static_cast<std::size_t>(kDipWindowEnd / kBucket);
  double steady_sum = 0, post_sum = 0, worst = -1;
  std::size_t steady_n = 0, post_n = 0;
  for (std::size_t b = first; b < buckets.size(); ++b) {
    const double rate = static_cast<double>(buckets[b]) / (static_cast<double>(kBucket) / kSecond);
    if (b >= dip_from && b < dip_to) {
      if (worst < 0 || rate < worst) worst = rate;
    } else {
      steady_sum += rate;
      ++steady_n;
      if (b >= dip_to) {
        post_sum += rate;
        ++post_n;
      }
    }
  }
  res.steady = steady_n > 0 ? steady_sum / static_cast<double>(steady_n) : 0;
  res.dip = res.steady > 0 ? worst / res.steady : 0;
  res.recovery =
      res.steady > 0 && post_n > 0 ? (post_sum / static_cast<double>(post_n)) / res.steady : 0;
  return res;
}

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  using namespace spider::bench;

  const bool gate = argc > 1 && std::strcmp(argv[1], "--gate") == 0;
  Result r = run();

  std::printf("Live resharding under closed-loop writes (4 shards, quarter-range moved)\n");
  std::printf("%-24s %10s\n", "metric", "value");
  std::printf("%-24s %10.1f ms\n", "migration pause", r.pause_ms);
  std::printf("%-24s %10.0f ops/s\n", "steady throughput", r.steady);
  std::printf("%-24s %10.2f x steady\n", "worst dip bucket", r.dip);
  std::printf("%-24s %10.2f x steady\n", "post-migration recovery", r.recovery);
  std::printf("%-24s %10s\n", "migration completed", r.migration_ok ? "yes" : "NO");

  if (gate) {
    if (!r.migration_ok) {
      std::printf("FAIL: migration did not complete\n");
      return 1;
    }
    if (r.pause_ms > 1500.0) {
      std::printf("FAIL: migration pause %.1f ms exceeds 1500 ms\n", r.pause_ms);
      return 1;
    }
    if (r.recovery < 0.7) {
      std::printf("FAIL: throughput recovered to only %.2fx of steady state\n", r.recovery);
      return 1;
    }
    std::printf("OK: pause %.1f ms, recovery %.2fx\n", r.pause_ms, r.recovery);
  }
  return 0;
}
