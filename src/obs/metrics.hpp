// Metrics registry: typed counters/gauges and fixed-memory log-bucketed
// histograms with {node, shard, role} labels.
//
// Design constraints (the flight-recorder PR's contract):
//   - deterministic: snapshots iterate metrics in sorted key order and
//     contain only values derived from simulated time / event counts, so a
//     seed replay produces byte-identical output;
//   - bounded memory: histograms are log-bucketed counts (no sample
//     hoarding), safe to keep per node for million-op runs;
//   - mergeable: histograms merge by bucket-count addition, so per-node
//     or per-shard latencies aggregate exactly;
//   - JSON-lines snapshot (one object per line, machine-appendable).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace spider::obs {

/// Log-bucketed histogram over non-negative 64-bit values (HdrHistogram
/// style): each power-of-two octave is split into 2^kSubBits linear
/// sub-buckets, so any recorded value lands in a bucket whose width is at
/// most 2^-kSubBits of its magnitude.
///
/// Error bound: percentile() returns the midpoint of the selected bucket,
/// clamped to the exact [min, max] observed, so the relative error of any
/// reported quantile is at most 2^-(kSubBits+1) ~= 3.2% (values below
/// 2^(kSubBits+1) = 32 are bucketed exactly). Memory does not depend on the
/// sample count: the bucket vector grows only up to the highest bucket
/// used (~1.7 KiB for microsecond latencies up to 100 ms, ~7.6 KiB at
/// most), and an empty histogram holds no buckets.
class LogHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;
  // Highest index: msb 63 -> ((63 - kSubBits) + 1) << kSubBits | (kSubBuckets - 1).
  static constexpr std::size_t kBuckets = ((64 - kSubBits) << kSubBits) + kSubBuckets;

  /// Bucket index of `v` (monotone in v; exact for v < 2 * kSubBuckets).
  static std::size_t bucket_index(std::uint64_t v);
  /// Smallest value mapping to bucket `i`.
  static std::uint64_t bucket_lower(std::size_t i);
  /// Number of distinct values mapping to bucket `i`.
  static std::uint64_t bucket_width(std::size_t i);

  void add(std::uint64_t v, std::uint64_t n = 1);
  void merge(const LogHistogram& other);
  void clear();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const;

  /// Nearest-rank percentile (p in [0, 100]): the representative value of
  /// the bucket holding the ceil(p/100 * count)-th smallest sample,
  /// clamped to [min(), max()]. Deterministic integer arithmetic.
  [[nodiscard]] std::uint64_t percentile(double p) const;

  /// Samples in bucket `i` (0 above the highest bucket used).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0;
  }

 private:
  void grow_to(std::size_t n);

  std::vector<std::uint64_t> buckets_;  // counts up to the highest bucket used
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// Monotone event counter.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time signed value.
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  [[nodiscard]] std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Metric labels. `role` must point at a string with static storage
/// duration (it is stored by value into the key on first use).
struct MetricLabels {
  std::uint32_t node = 0;
  std::uint32_t shard = 0;
  std::string_view role = {};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Lookup-or-create. References stay valid for the registry's lifetime;
  /// hot paths should cache the returned pointer.
  Counter& counter(std::string_view name, MetricLabels labels = {});
  Gauge& gauge(std::string_view name, MetricLabels labels = {});
  LogHistogram& histogram(std::string_view name, MetricLabels labels = {},
                          std::string_view unit = "us");

  /// JSON-lines snapshot, one object per metric, sorted by
  /// (name, node, shard, role):
  ///   {"metric": ..., "type": "counter", "node": N, "shard": S,
  ///    "role": ..., "value": V}
  /// Histograms report count/min/max/mean/p50/p99/p999 plus their unit.
  [[nodiscard]] std::string snapshot_json() const;
  bool write_snapshot(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

 private:
  struct Key {
    std::string name;
    std::uint32_t node;
    std::uint32_t shard;
    std::string role;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      if (node != o.node) return node < o.node;
      if (shard != o.shard) return shard < o.shard;
      return role < o.role;
    }
  };
  struct Entry {
    char type = 'c';  // 'c'ounter, 'g'auge, 'h'istogram
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<LogHistogram> h;
    std::string unit;
  };

  Entry& entry(std::string_view name, const MetricLabels& labels, char type);

  std::map<Key, Entry> metrics_;
};

}  // namespace spider::obs
