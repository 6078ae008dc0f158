// Figure 10: adaptability — 50 s into the run, average write (10a) and
// weakly consistent read (10b) latencies are tracked; at t = 80 s a new
// client site (Sao Paulo) joins. BFT/BFT-WV/HFT serve the new clients from
// existing replicas; Spider spins up a new execution group in Sao Paulo.
//
// Expected shape (paper): all systems' *average* write latency jumps when
// the distant clients join (Sao Paulo is far from everything); only Spider
// keeps the new clients' weak reads local (no jump in 10b), and BFT-WV does
// not beat BFT despite the extra replica.
#include "baselines/bft_system.hpp"
#include "baselines/hft_system.hpp"
#include "harness.hpp"
#include "spider/system.hpp"

namespace spider::bench {
namespace {

const std::vector<Region> kInitialRegions = {Region::Virginia, Region::Oregon, Region::Ireland,
                                             Region::Tokyo};
constexpr int kClientsPerRegion = 4;
constexpr Duration kInterval = 500 * kMillisecond;
constexpr Time kStartMeasure = 50 * kSecond;
constexpr Time kJoin = 80 * kSecond;
constexpr Time kEnd = 110 * kSecond;

struct Series {
  Timeline writes;
  Timeline weak_reads;
};

void print_series(const std::string& label, const Series& s) {
  auto dump = [&](const char* kind, const Timeline& tl) {
    std::printf("%s %s:", label.c_str(), kind);
    for (const auto& [second, agg] : tl.seconds) {
      if (second * kSecond < kStartMeasure) continue;
      std::printf(" %lld:%0.0f", static_cast<long long>(second),
                  agg.sum_ms / static_cast<double>(agg.count));
    }
    std::printf("\n");
  };
  dump("write(avg ms per s)", s.writes);
  dump("weak (avg ms per s)", s.weak_reads);
}

/// Runs the timeline against any system; `late_client` builds a Sao Paulo
/// client (possibly after system-specific preparation at kJoin).
template <typename MakeClient>
Series run_timeline(World& world, MakeClient make_client,
                    std::function<void()> prepare_join = {}) {
  Series series;
  Fleet writes(world, kStartMeasure, kEnd);
  Fleet weak(world, kStartMeasure, kEnd);
  writes.timeline = &series.writes;
  weak.timeline = &series.weak_reads;

  for (Region r : kInitialRegions) {
    for (int i = 0; i < kClientsPerRegion; ++i) {
      writes.add_client(make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r, OpKind::Write);
      weak.add_client(make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                      OpKind::WeakRead);
    }
  }
  writes.start(kInterval);
  weak.start(kInterval);

  // At t = kJoin - 2s run the system-specific preparation (Spider: AddGroup),
  // and at kJoin start the Sao Paulo clients.
  if (prepare_join) {
    world.queue().schedule_at(kJoin - 2 * kSecond, prepare_join);
  }
  world.queue().schedule_at(kJoin, [&] {
    for (int i = 0; i < kClientsPerRegion; ++i) {
      writes.add_client(make_client(Site{Region::SaoPaulo, static_cast<std::uint8_t>(i % 3)}),
                        Region::SaoPaulo, OpKind::Write);
      weak.add_client(make_client(Site{Region::SaoPaulo, static_cast<std::uint8_t>(i % 3)}),
                      Region::SaoPaulo, OpKind::WeakRead);
    }
    writes.start_new_entries(kInterval);
    weak.start_new_entries(kInterval);
  });

  world.run_until(kEnd + 2 * kSecond);
  return series;
}

}  // namespace
}  // namespace spider::bench

int main() {
  using namespace spider;
  using namespace spider::bench;
  std::printf("=== Figure 10: impact of a new client site (Sao Paulo at t=80 s) ===\n");
  std::printf("series format: <second>:<avg latency ms>\n\n");

  {
    World world(1);
    std::vector<Site> sites = {Site{Region::Virginia, 0}, Site{Region::Oregon, 0},
                               Site{Region::Ireland, 0}, Site{Region::Tokyo, 0}};
    BftSystem sys(world, BftConfig{sites});
    Series s = run_timeline(world, [&](Site site) { return sys.make_client(site); });
    print_series("BFT", s);
  }
  {
    // BFT-WV: five replicas (one per client region incl. Sao Paulo),
    // weights 2 on Virginia and Oregon (the paper's best assignment).
    World world(2);
    std::vector<Site> sites = {Site{Region::Virginia, 0}, Site{Region::Oregon, 0},
                               Site{Region::Ireland, 0}, Site{Region::Tokyo, 0},
                               Site{Region::SaoPaulo, 0}};
    BftConfig cfg{sites};
    cfg.weights = {2, 2, 1, 1, 1};
    cfg.quorum_weight = 5;
    BftSystem sys(world, cfg);
    Series s = run_timeline(world, [&](Site site) { return sys.make_client(site); });
    print_series("BFT-WV", s);
  }
  {
    World world(3);
    HftSystem sys(world, HftConfig{});
    Series s = run_timeline(world, [&](Site site) { return sys.make_client(site); });
    print_series("HFT", s);
  }
  {
    World world(4);
    SpiderSystem sys(world, SpiderTopology{});
    Series s = run_timeline(
        world, [&](Site site) { return sys.make_client(site); },
        [&] { sys.add_group(Region::SaoPaulo); });
    print_series("SPIDER", s);
  }
  return 0;
}
