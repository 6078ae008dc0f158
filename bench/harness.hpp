// Shared workload driver for the figure-reproduction benchmarks.
//
// Emulates the paper's client population: a set of clients per region
// issuing fixed-size KV operations at a fixed rate against any system that
// serves SpiderClient (Spider, BFT, BFT-WV, HFT). Latencies are recorded
// per region, with a warm-up cutoff.
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

enum class OpType { Write, StrongRead, WeakRead };

inline const char* op_name(OpType t) {
  switch (t) {
    case OpType::Write: return "write";
    case OpType::StrongRead: return "strong-read";
    case OpType::WeakRead: return "weak-read";
  }
  return "?";
}

/// Value padding so requests are ~200 bytes on the wire (paper §5).
inline Bytes payload_200b() { return Bytes(160, 0x42); }

struct Fleet {
  struct Entry {
    std::unique_ptr<SpiderClient> client;
    Region region;
    OpType op;
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
  TimeSeries* timeline = nullptr;                 // optional (Figure 10)
  std::function<bool(const Entry&)> active = {};  // optional gating

  Fleet(World& w, Time measure_from_, Time stop_at_)
      : world(w), measure_from(measure_from_), stop_at(stop_at_) {}

  void add_client(std::unique_ptr<SpiderClient> c, Region r, OpType op) {
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
          if (timeline) timeline->add(issued, to_ms(lat));
        }
      };
      std::string key = "c" + std::to_string(i) + "-k" + std::to_string(e.key_seq++ % 32);
      switch (e.op) {
        case OpType::Write: e.client->write(kv_put(key, payload_200b()), record); break;
        case OpType::StrongRead: e.client->strong_read(kv_get(key), record); break;
        case OpType::WeakRead: e.client->weak_read(kv_get(key), record); break;
      }
      schedule_next(i, interval, interval);
    });
  }
};

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
