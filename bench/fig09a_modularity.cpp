// Figure 9a: modularity impact — Spider-0E (agreement group executes, no
// IRMC), Spider-1E (one execution group co-located with the agreement
// group) and full Spider, 200-byte writes.
//
// Expected shape (paper): for remote clients response times are dominated
// by client<->Virginia WAN latency in all three variants; the IRMC +
// externalized execution adds less than ~14 ms.
#include "baselines/bft_system.hpp"
#include "harness.hpp"
#include "spider/system.hpp"

int main() {
  using namespace spider;
  using namespace spider::bench;
  std::printf("=== Figure 9a: overall latency of Spider variants (200-byte writes) ===\n\n");

  {
    // Spider-0E: one 3fa+1 group in Virginia AZs that orders AND executes.
    World world(1);
    std::vector<Site> azs = {Site{Region::Virginia, 0}, Site{Region::Virginia, 1},
                             Site{Region::Virginia, 2}, Site{Region::Virginia, 3}};
    BftSystem sys(world, BftConfig{azs});
    print_region_row("SPIDER-0E",
                     run_write_load(world, [&](Site s) { return sys.make_client(s); }));
  }
  {
    // Spider-1E: a single execution group co-located in Virginia.
    World world(2);
    SpiderTopology topo;
    topo.exec_regions = {Region::Virginia};
    SpiderSystem sys(world, topo);
    print_region_row("SPIDER-1E",
                     run_write_load(world, [&](Site s) { return sys.make_client(s); }));
  }
  {
    World world(3);
    SpiderSystem sys(world, SpiderTopology{});
    print_region_row("SPIDER", run_write_load(world, [&](Site s) { return sys.make_client(s); }));
  }
  return 0;
}
