// Micro-benchmark: observability overhead on a fixed Spider write workload.
//
// Tracing is out-of-band by construction — every instrumentation site is
// `if (auto* t = world.tracer())` over POD arguments, so a traced-off run
// pays one predicted branch per site and a flight-recorder (ring) run pays
// a bounded append into preallocated storage. This bench makes both claims
// measurable:
//
//   1. determinism: the same seed produces identical simulated latency
//      stats with tracing off, ring, and full — the tracer never perturbs
//      scheduling (hard failure if violated);
//   2. overhead: wall-clock of the ring-tracer run over the traced-off run
//      (median of 5), gated in CI at --gate <ratio> (1.05 = flight
//      recording costs at most 5% over the null sink).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "obs/trace.hpp"
#include "spider/system.hpp"

namespace spider::bench {
namespace {

constexpr std::uint64_t kSeed = 777;
constexpr Time kWarmup = 1 * kSecond;
constexpr Time kEnd = 12 * kSecond;
constexpr Duration kInterval = 40 * kMillisecond;
constexpr int kClientsPerRegion = 4;
constexpr int kReps = 5;

enum class TraceMode { kOff, kRing, kFull };

struct RunResult {
  double wall_s = 0;
  std::size_t ops = 0;
  Duration p50 = 0;
  Duration p99 = 0;
  std::size_t trace_events = 0;
};

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

RunResult run_once(TraceMode mode) {
  const double t0 = now_s();
  World world(kSeed);
  if (mode == TraceMode::kRing) world.enable_tracing(obs::Tracer::Mode::kRing, 1 << 15);
  if (mode == TraceMode::kFull) world.enable_tracing(obs::Tracer::Mode::kFull);
  SpiderTopology topo;
  SpiderSystem sys(world, topo);

  Fleet fleet(world, kWarmup, kEnd);
  for (Region r : {Region::Virginia, Region::Oregon, Region::Ireland}) {
    for (int i = 0; i < kClientsPerRegion; ++i) {
      fleet.add_client(sys.make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                       OpKind::Write);
    }
  }
  fleet.start(kInterval);
  world.run_until(kEnd + kSecond);

  RunResult res;
  res.wall_s = now_s() - t0;
  // Aggregate percentiles deterministically: merge per-region histograms.
  obs::LogHistogram merged;
  for (auto& [region, s] : fleet.stats) {
    res.ops += s.count();
    merged.merge(s.histogram());
  }
  res.p50 = static_cast<Duration>(merged.percentile(50));
  res.p99 = static_cast<Duration>(merged.percentile(99));
  if (auto* t = world.tracer()) res.trace_events = t->size() + t->dropped();
  return res;
}

double median_wall(TraceMode mode, RunResult* last) {
  std::vector<double> walls;
  for (int i = 0; i < kReps; ++i) {
    *last = run_once(mode);
    walls.push_back(last->wall_s);
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  using namespace spider;
  using namespace spider::bench;
  double gate = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate" && i + 1 < argc) gate = std::atof(argv[i + 1]);
  }

  // Determinism first: identical simulated results in every mode.
  RunResult off1 = run_once(TraceMode::kOff);
  RunResult ring1 = run_once(TraceMode::kRing);
  RunResult full1 = run_once(TraceMode::kFull);
  if (off1.ops != ring1.ops || off1.ops != full1.ops || off1.p50 != ring1.p50 ||
      off1.p50 != full1.p50 || off1.p99 != ring1.p99 || off1.p99 != full1.p99) {
    std::printf("FAIL: tracing perturbed the simulation (ops %zu/%zu/%zu, p50 %lld/%lld/%lld)\n",
                off1.ops, ring1.ops, full1.ops, static_cast<long long>(off1.p50),
                static_cast<long long>(ring1.p50), static_cast<long long>(full1.p50));
    return 1;
  }

  RunResult off{}, ring{}, full{};
  const double off_s = median_wall(TraceMode::kOff, &off);
  const double ring_s = median_wall(TraceMode::kRing, &ring);
  const double full_s = median_wall(TraceMode::kFull, &full);

  const double ring_ratio = ring_s / off_s;
  const double full_ratio = full_s / off_s;
  std::printf("spider write workload, %zu measured ops, median of %d reps\n", off.ops, kReps);
  std::printf("  tracing off (null sink): %8.3f s\n", off_s);
  std::printf("  flight recorder (ring):  %8.3f s  (%.3fx, %zu events seen)\n", ring_s,
              ring_ratio, ring.trace_events);
  std::printf("  full trace:              %8.3f s  (%.3fx, %zu events kept)\n", full_s,
              full_ratio, full.trace_events);


  if (gate > 0.0 && ring_ratio > gate) {
    std::printf("FAIL: ring overhead %.3fx above gate %.2fx\n", ring_ratio, gate);
    return 1;
  }
  if (gate > 0.0) std::printf("OK: ring overhead %.3fx <= gate %.2fx\n", ring_ratio, gate);
  return 0;
}
