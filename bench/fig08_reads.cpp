// Figure 8: read latencies with strong (8a) and weak (8b) consistency.
//
// Expected shape (paper): strongly consistent reads in Spider follow the
// write path (one WAN round trip to the agreement group); BFT/HFT strong
// reads run full consensus. Weakly consistent reads are <= 2 ms for HFT
// and Spider (local site / local execution group) but need a wide-area
// quorum in flat BFT.
#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "harness.hpp"
#include "spider/system.hpp"

namespace spider::bench {
namespace {

template <typename MakeClient>
void run_reads(World& world, const std::string& label, MakeClient make_client) {
  using namespace paper_load;
  Fleet strong(world, kWarmup, kEnd);
  Fleet weak(world, kWarmup, kEnd);
  for (Region r : kRegions) {
    for (int i = 0; i < kClientsPerRegion; ++i) {
      strong.add_client(make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                        OpKind::StrongRead);
      weak.add_client(make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                      OpKind::WeakRead);
    }
  }
  strong.start(kInterval);
  weak.start(kInterval);
  world.run_until(kEnd + 2 * kSecond);
  print_region_row(label + " strong", strong.stats);
  print_region_row(label + " weak", weak.stats);
}

}  // namespace
}  // namespace spider::bench

int main() {
  using namespace spider;
  using namespace spider::bench;
  std::printf("=== Figure 8: read latency percentiles (strong / weak) ===\n\n");

  {
    World world(1);
    std::vector<Site> sites = {Site{Region::Virginia, 0}, Site{Region::Oregon, 0},
                               Site{Region::Ireland, 0}, Site{Region::Tokyo, 0}};
    BftSystem sys(world, BftConfig{sites});
    run_reads(world, "BFT", [&](Site s) { return sys.make_client(s); });
  }
  {
    World world(2);
    HftSystem sys(world, HftConfig{});
    run_reads(world, "HFT", [&](Site s) { return sys.make_client(s); });
  }
  {
    World world(3);
    SpiderSystem sys(world, SpiderTopology{});
    run_reads(world, "SPIDER", [&](Site s) { return sys.make_client(s); });
  }
  return 0;
}
