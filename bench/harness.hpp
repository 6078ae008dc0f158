// Shared workload driver for the figure-reproduction benchmarks.
//
// Emulates the paper's client population: a set of clients per region
// issuing fixed-size KV operations at a fixed rate against any system that
// serves SpiderClient (Spider, BFT, BFT-WV, HFT). Each client is handed one
// op per interval through SpiderClient::fire, whether or not its last op
// finished; the client queues it. Latencies are the client's service
// latencies (from transmission), recorded per region with a warm-up cutoff.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/kvstore.hpp"
#include "sim/stats.hpp"
#include "sim/world.hpp"
#include "spider/client.hpp"

namespace spider::bench {

/// Value padding so requests are ~200 bytes on the wire (paper §5).
inline Bytes payload_200b() { return Bytes(160, 0x42); }

/// Average latency per second of issue time (Figure 10's timeline).
struct Timeline {
  struct Second {
    double sum_ms = 0;
    std::size_t count = 0;
  };
  std::map<Time, Second> seconds;  // whole seconds since the start

  void add(Time issued, Duration latency) {
    Second& s = seconds[issued / kSecond];
    s.sum_ms += to_ms(latency);
    ++s.count;
  }
};

struct Fleet {
  struct Entry {
    std::unique_ptr<SpiderClient> client;
    Region region;
    OpKind op;
    std::uint64_t key_seq = 0;
  };

  World& world;
  std::vector<Entry> entries;
  Time measure_from = 0;
  Time stop_at = 0;
  std::map<Region, LatencyStats> stats;           // per-region latencies
  /// Ops whose *completion* falls inside [measure_from, stop_at): the
  /// service-rate counter for throughput sweeps (latency stats stay gated
  /// on issue time so warm-up ops never pollute them).
  std::uint64_t completed = 0;
  Timeline* timeline = nullptr;                   // optional (Figure 10)
  std::function<bool(const Entry&)> active = {};  // optional gating

  Fleet(World& w, Time measure_from_, Time stop_at_)
      : world(w), measure_from(measure_from_), stop_at(stop_at_) {}

  void add_client(std::unique_ptr<SpiderClient> c, Region r, OpKind op) {
    entries.push_back(Entry{std::move(c), r, op});
  }

  /// Starts every client issuing one op per `interval`, staggered.
  void start(Duration interval) {
    for (std::size_t i = started_; i < entries.size(); ++i) {
      Duration offset = static_cast<Duration>(i) * interval / static_cast<Duration>(entries.size() + 1);
      schedule_next(i, offset, interval);
    }
    started_ = entries.size();
  }

  /// Starts only entries added since the last start() (Figure 10: clients
  /// joining mid-run).
  void start_new_entries(Duration interval) { start(interval); }

 private:
  std::size_t started_ = 0;
  void schedule_next(std::size_t i, Duration delay, Duration interval) {
    world.queue().schedule_after(delay, [this, i, interval] {
      if (world.now() >= stop_at) return;
      Entry& e = entries[i];
      if (active && !active(e)) {
        schedule_next(i, interval, interval);
        return;
      }
      Time issued = world.now();
      auto record = [this, i, issued](Bytes, Duration lat) {
        Entry& en = entries[i];
        if (world.now() >= measure_from && world.now() < stop_at) ++completed;
        if (issued >= measure_from) {
          stats[en.region].add(lat);
          if (timeline) timeline->add(issued, lat);
        }
      };
      std::string key = "c" + std::to_string(i) + "-k" + std::to_string(e.key_seq++ % 32);
      e.client->fire(e.op, e.op == OpKind::Write ? kv_put(key, payload_200b()) : kv_get(key),
                     record);
      schedule_next(i, interval, interval);
    });
  }
};

/// The paper's client population (Figures 7, 8, 9a and 11): six clients in
/// each of four regions, one op per client every 500 ms until 35 s, with
/// latencies recorded for ops submitted from 5 s on.
namespace paper_load {
inline const std::vector<Region> kRegions = {Region::Virginia, Region::Oregon, Region::Ireland,
                                             Region::Tokyo};
constexpr int kClientsPerRegion = 6;
constexpr Duration kInterval = 500 * kMillisecond;
constexpr Time kWarmup = 5 * kSecond;
constexpr Time kEnd = 35 * kSecond;
}  // namespace paper_load

/// Runs the paper's 200-byte write load against clients from `make_client`
/// (Site -> unique_ptr<SpiderClient>) and returns per-region latencies.
template <typename MakeClient>
std::map<Region, LatencyStats> run_write_load(World& world, MakeClient make_client) {
  using namespace paper_load;
  Fleet fleet(world, kWarmup, kEnd);
  for (Region r : kRegions) {
    for (int i = 0; i < kClientsPerRegion; ++i) {
      fleet.add_client(make_client(Site{r, static_cast<std::uint8_t>(i % 3)}), r,
                       OpKind::Write);
    }
  }
  fleet.start(kInterval);
  world.run_until(kEnd + 2 * kSecond);
  return std::move(fleet.stats);
}

/// Prints one figure row: p50/p90 per region.
inline void print_region_row(const std::string& label, const std::map<Region, LatencyStats>& stats) {
  std::printf("%-28s", label.c_str());
  for (const auto& [region, s] : stats) {
    std::printf("  %s: p50=%6.1f ms p90=%6.1f ms (n=%zu)", region_code(region),
                to_ms(s.median()), to_ms(s.p90()), s.count());
  }
  std::printf("\n");
}

}  // namespace spider::bench
