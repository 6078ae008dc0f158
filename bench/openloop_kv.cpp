// Open-loop KV load: latency-vs-throughput curves and saturation knees.
//
// Walks a Poisson offered-rate ladder over the {1-shard, 4-shard} x
// {batch 1, batch 16} grid. Unlike the closed-loop figure benches, the
// arrival process never waits for replies, so each curve shows the real
// queueing behaviour: flat sojourn latency while the deployment keeps up,
// then the knee — p99 blowing past the low-load baseline or goodput
// falling off the offered rate — once the ordered path saturates. Rows
// land on stdout (p50/p99/p999 sourced from the registry histograms the
// driver records into).
//
//   --sweep        run the rate sweep (default; flag kept for scripts)
//   --smoke        short ladder + small pool (CI-sized)
//   --gate         exit 1 unless every config has a knee and its low-load
//                  p50 stays inside the sanity band
//   --seed N       world seed (default 42); same seed => byte-identical rows
//   --loopback     drive a real-socket deployment (UDP + framed TCP via
//                  net::LoopbackTransport): single-shard grid, short ladder,
//                  wall-clock windows. Rows are not byte-deterministic, but
//                  modeled CPU still bounds throughput, so the knee gate
//                  stays meaningful.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "load/sweep.hpp"

namespace {

// Low-load sanity band for the gate: the first ladder point's p50 sojourn
// must look like an unloaded ordered write over the short-WAN deployment —
// not sub-millisecond (nothing real committed) and not into the retransmit
// regime.
constexpr double kLowLoadP50MinUs = 1'000;
constexpr double kLowLoadP50MaxUs = 200'000;

// Loopback band: the wire is a real 127.0.0.1 hop (microseconds) instead of
// the modeled short-WAN links, so an unloaded ordered write is dominated by
// the modeled crypto/processing charges alone — faster than the sim's
// low-load p50, but still far from zero.
constexpr double kLoopbackP50MinUs = 200;
constexpr double kLoopbackP50MaxUs = 100'000;

struct GridPoint {
  std::uint32_t shards;
  std::uint64_t max_batch;
};

std::string grid_label(const GridPoint& g) {
  return "shards=" + std::to_string(g.shards) +
         " batch=" + std::to_string(g.max_batch);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spider;
  using namespace spider::load;

  bool smoke = false;
  bool gate = false;
  bool loopback = false;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    else if (std::strcmp(argv[i], "--loopback") == 0) loopback = true;
    else if (std::strcmp(argv[i], "--sweep") == 0) continue;  // default mode
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::printf("usage: %s [--sweep] [--smoke] [--gate] [--loopback] [--seed N]\n",
                  argv[0]);
      return 2;
    }
  }

  OpenLoopProfile profile;
  profile.clients = smoke ? 512 : 2048;
  profile.measure = smoke ? 1 * kSecond : 2 * kSecond;
  std::vector<double> rates =
      smoke ? std::vector<double>{100, 400, 1600, 6400, 12800, 25600}
            : std::vector<double>{50,   100,  200,  400,   800,
                                  1600, 3200, 6400, 12800, 25600};

  std::vector<GridPoint> grid = {{1, 1}, {1, 16}, {4, 1}, {4, 16}};

  if (loopback) {
    // Wall-clock windows: every virtual microsecond of warmup/measure/drain
    // costs a real one, so keep the deployment small and the ladder short.
    // The knee still falls inside the ladder because the modeled crypto
    // costs cap the ordered path at the same per-op budget as in the sim.
    grid = {{1, 1}};
    rates = {400, 1600, 6400, 25600};
    profile.clients = 64;
    profile.warmup = 300 * kMillisecond;
    profile.measure = 500 * kMillisecond;
    profile.drain = 1500 * kMillisecond;
  }

  std::printf("Open-loop KV sweep (%zu clients, Zipf theta=%.2f, seed %llu%s%s)\n",
              profile.clients, profile.zipf_theta,
              static_cast<unsigned long long>(seed), smoke ? ", smoke" : "",
              loopback ? ", loopback sockets" : "");

  bool gate_ok = true;
  for (const GridPoint& g : grid) {
    SweepConfig cfg;
    cfg.shards = g.shards;
    cfg.max_batch = g.max_batch;
    cfg.rates = rates;
    cfg.seed = seed;
    cfg.profile = profile;
    cfg.loopback = loopback;
    // Smoke stops right at the knee; the full sweep runs one confirmation
    // point into the collapse region (the expensive part of the curve).
    cfg.points_past_knee = smoke ? 0 : 1;

    const std::string label = grid_label(g);
    SweepResult res = run_sweep(cfg, [&](const RateRow& row) {
      std::printf("%s\n", row_text(g.shards, g.max_batch, row).c_str());
      std::fflush(stdout);
    });

    if (res.knee_rate()) {
      std::printf("%s knee rate=%.0f ops/s\n", label.c_str(), *res.knee_rate());
    } else {
      std::printf("%s knee not reached within ladder\n", label.c_str());
    }

    const double low_p50 = static_cast<double>(res.rows.front().result.p50_us);
    const double p50_min = loopback ? kLoopbackP50MinUs : kLowLoadP50MinUs;
    const double p50_max = loopback ? kLoopbackP50MaxUs : kLowLoadP50MaxUs;
    if (!res.knee_index) {
      std::printf("GATE: %s has no saturation knee inside the ladder\n", label.c_str());
      gate_ok = false;
    }
    if (low_p50 < p50_min || low_p50 > p50_max) {
      std::printf("GATE: %s low-load p50 %.0f us outside [%.0f, %.0f]\n", label.c_str(),
                  low_p50, p50_min, p50_max);
      gate_ok = false;
    }
  }

  if (gate) {
    if (!gate_ok) {
      std::printf("FAIL: open-loop gate violated\n");
      return 1;
    }
    std::printf("OK: every config has a knee and a sane low-load baseline\n");
  }
  return 0;
}
