// Write-throughput sweep over the request-batching knobs.
//
// A fixed client population hammers the ordered-write path while the PBFT
// leader batches `max_batch` requests per consensus instance and the
// agreement group forwards whole batches over the commit channels. The
// sweep shows how batching amortizes per-instance consensus traffic and
// per-message IRMC MACs: throughput at max_batch=16 must beat max_batch=1
// on the same seed (this is the repo's batching acceptance check).
#include <cstdio>

#include "bench/harness.hpp"
#include "spider/system.hpp"

namespace spider::bench {
namespace {

struct Result {
  double ops_per_s = 0;
  double avg_batch = 0;
  std::uint64_t instances = 0;
};

Result run_one(std::uint64_t max_batch, Duration batch_delay, int clients) {
  World world(4242);  // same seed across all grid points
  SpiderTopology topo;
  // Four execution groups over short-WAN regions spread the request-path
  // work (client signature checks, request-channel signing), so the
  // agreement group is the bottleneck: every agreement replica signs one
  // commit-channel message per group per consensus instance (~210 us
  // each). That is exactly the per-instance cost batching amortizes.
  topo.exec_regions = {Region::Virginia, Region::Ohio, Region::Virginia, Region::Ohio};
  topo.commit_capacity = 128;
  topo.ag_win = 128;
  topo.max_batch = max_batch;
  topo.batch_delay = batch_delay;
  SpiderSystem sys(world, topo);

  const Time measure_from = 2 * kSecond;
  const Time stop_at = 8 * kSecond;
  Fleet fleet(world, measure_from, stop_at);
  for (int i = 0; i < clients; ++i) {
    Region r = (i % 2 == 0) ? Region::Virginia : Region::Ohio;
    fleet.add_client(sys.make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                     OpKind::Write);
  }
  // Offered load well above the unbatched agreement capacity, so the sweep
  // measures service rate, not load generation.
  fleet.start(2 * kMillisecond);
  world.run_until(stop_at);

  Result res;
  res.ops_per_s = static_cast<double>(fleet.completed) /
                  (static_cast<double>(stop_at - measure_from) / kSecond);
  PbftReplica& leader = sys.agreement(0).consensus();
  res.instances = leader.batches_proposed();
  res.avg_batch = leader.batches_proposed() == 0
                      ? 0.0
                      : static_cast<double>(leader.requests_proposed()) /
                            static_cast<double>(leader.batches_proposed());
  return res;
}

}  // namespace
}  // namespace spider::bench

int main() {
  using namespace spider;
  using namespace spider::bench;

  std::printf("Request batching on the ordered-write path (Spider, 4 exec groups)\n");
  std::printf("%-10s %-12s %12s %12s %12s\n", "max_batch", "batch_delay", "ops/s",
              "instances", "avg batch");

  const int kClients = 160;
  double base = 0;
  double best = 0;
  for (std::uint64_t mb : {1ull, 4ull, 16ull}) {
    Duration delay = mb == 1 ? 0 : kMillisecond;
    Result r = run_one(mb, delay, kClients);
    std::printf("%-10llu %9lld us %12.0f %12llu %12.1f\n",
                static_cast<unsigned long long>(mb), static_cast<long long>(delay), r.ops_per_s,
                static_cast<unsigned long long>(r.instances), r.avg_batch);
    if (mb == 1) base = r.ops_per_s;
    if (mb == 16) best = r.ops_per_s;
  }

  if (best <= base) {
    std::printf("FAIL: max_batch=16 (%.0f ops/s) not faster than max_batch=1 (%.0f ops/s)\n",
                best, base);
    return 1;
  }
  std::printf("OK: batching speedup %.2fx\n", best / base);
  return 0;
}
