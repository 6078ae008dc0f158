// Figure 7: 50th/90th percentile write latencies for BFT, HFT and Spider
// with clients in Virginia/Oregon/Ireland/Tokyo and different leader
// locations.
//
// Expected shape (paper): BFT and HFT latencies depend strongly on the
// leader (site) location; Spider is uniformly low for Virginia clients and
// bounded by one WAN round trip for remote clients, regardless of which
// availability zone hosts the agreement leader.
#include <cstdlib>

#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "harness.hpp"
#include "obs/trace_export.hpp"
#include "spider/system.hpp"

namespace spider::bench {
namespace {

void bench_bft() {
  const std::vector<Region> order = {Region::Virginia, Region::Oregon, Region::Ireland,
                                     Region::Tokyo};
  for (std::size_t leader = 0; leader < order.size(); ++leader) {
    World world(100 + leader);
    std::vector<Site> sites;
    for (std::size_t i = 0; i < order.size(); ++i) {
      sites.push_back(Site{order[(leader + i) % order.size()], 0});
    }
    BftSystem sys(world, BftConfig{sites});
    auto stats = run_write_load(world, [&](Site s) { return sys.make_client(s); });
    print_region_row("BFT leader=" + std::string(region_code(order[leader])), stats);
  }
}

void bench_hft() {
  for (std::uint32_t leader = 0; leader < 4; ++leader) {
    World world(200 + leader);
    HftConfig cfg;
    cfg.leader_site = leader;
    HftSystem sys(world, cfg);
    auto stats = run_write_load(world, [&](Site s) { return sys.make_client(s); });
    print_region_row("HFT leader-site=" + std::string(region_code(cfg.site_regions[leader])),
                     stats);
  }
}

void bench_spider() {
  // SPIDER_TRACE=<path> flight-records the first Spider configuration and
  // exports a Chrome/Perfetto trace of the whole run to <path>. Tracing is
  // out-of-band: the traced run's latencies are identical to an untraced
  // replay of the same seed.
  const char* trace_path = std::getenv("SPIDER_TRACE");
  for (std::uint32_t rot : {0u, 1u, 3u, 5u}) {  // leader in V-1, V-2, V-4, V-6
    World world(300 + rot);
    const bool traced = trace_path && rot == 0;
    if (traced) world.enable_tracing(obs::Tracer::Mode::kFull);
    SpiderTopology topo;
    topo.agreement_az_rotation = rot;
    SpiderSystem sys(world, topo);
    auto stats = run_write_load(world, [&](Site s) { return sys.make_client(s); });
    print_region_row("SPIDER leader=V-" + std::to_string(rot + 1), stats);
    if (traced) {
      if (obs::write_chrome_trace(*world.tracer(), trace_path)) {
        std::printf("  [trace] %zu events -> %s (open in ui.perfetto.dev)\n",
                    world.tracer()->size(), trace_path);
      } else {
        std::printf("  [trace] FAILED to write %s\n", trace_path);
      }
    }
  }
}

}  // namespace
}  // namespace spider::bench

int main() {
  std::printf("=== Figure 7: write latency percentiles by client region ===\n");
  std::printf("(200-byte writes; %d clients/region; measure window %.0f s)\n\n",
              spider::bench::paper_load::kClientsPerRegion,
              spider::to_sec(spider::bench::paper_load::kEnd - spider::bench::paper_load::kWarmup));
  spider::bench::bench_bft();
  std::printf("\n");
  spider::bench::bench_hft();
  std::printf("\n");
  spider::bench::bench_spider();
  return 0;
}
