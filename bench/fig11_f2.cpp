// Figure 11: write latencies when tolerating f = 2 faults per group.
// Additional replicas are placed in nearby regions (Ohio, California,
// London, Seoul) to obtain further fault domains.
//
// Expected shape (paper): HFT and Spider see a moderate latency increase
// (tens of ms) versus f = 1 because intra-group quorums now span a nearby
// region; Spider remains far below BFT and HFT, and stays insensitive to
// the agreement leader's availability zone.
#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "harness.hpp"
#include "spider/system.hpp"

int main() {
  using namespace spider;
  using namespace spider::bench;
  std::printf("=== Figure 11: write latency percentiles, f = 2 ===\n\n");

  {
    // BFT with 3f+1 = 7 replicas across seven regions.
    World world(1);
    std::vector<Site> sites = {Site{Region::Virginia, 0}, Site{Region::Oregon, 0},
                               Site{Region::Ireland, 0}, Site{Region::Tokyo, 0},
                               Site{Region::Ohio, 0},    Site{Region::California, 0},
                               Site{Region::London, 0}};
    BftConfig cfg{sites};
    cfg.f = 2;
    BftSystem sys(world, cfg);
    print_region_row("BFT f=2 leader=V",
                     run_write_load(world, [&](Site s) { return sys.make_client(s); }));
  }
  {
    // HFT with 3f+1 = 7 replicas per site cluster.
    World world(2);
    HftConfig cfg;
    cfg.f = 2;
    HftSystem sys(world, cfg);
    print_region_row("HFT f=2 leader-site=V",
                     run_write_load(world, [&](Site s) { return sys.make_client(s); }));
  }
  for (std::uint32_t rot : {0u, 3u}) {
    // Spider with fa = fe = 2: agreement group of 7 (Virginia AZs + Ohio),
    // execution groups of 5 (home AZs + nearby region).
    World world(3 + rot);
    SpiderTopology topo;
    topo.fa = 2;
    topo.fe = 2;
    topo.agreement_az_rotation = rot;
    SpiderSystem sys(world, topo);
    print_region_row("SPIDER f=2 leader=V-" + std::to_string(rot + 1),
                     run_write_load(world, [&](Site s) { return sys.make_client(s); }));
  }
  return 0;
}
