// Measurement utilities: latency histograms with percentiles and bucketed
// time series (for the adaptability timeline).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace spider {

/// Latency samples kept in an obs::LogHistogram and read back as Durations.
/// The histogram's buckets grow only to the highest one used (~7.6 KiB at
/// most), not with run length, and its percentiles carry a relative error
/// of at most 2^-5 ~= 3.2%, exact for values below 32 µs.
class LatencyStats {
 public:
  /// Latencies are non-negative in a causally consistent sim; a negative
  /// sample from a bug upstream lands in the 0 bucket instead of wrapping.
  void add(Duration sample) { hist_.add(sample > 0 ? static_cast<std::uint64_t>(sample) : 0); }
  void clear() { hist_.clear(); }

  [[nodiscard]] std::size_t count() const { return static_cast<std::size_t>(hist_.count()); }
  /// p is clamped to [0, 100] (NaN to 0); an empty histogram reports 0.
  [[nodiscard]] Duration percentile(double p) const {
    return static_cast<Duration>(hist_.percentile(p >= 0.0 ? p : 0.0));
  }
  [[nodiscard]] Duration median() const { return percentile(50.0); }
  [[nodiscard]] Duration p90() const { return percentile(90.0); }
  [[nodiscard]] Duration p99() const { return percentile(99.0); }
  [[nodiscard]] Duration p999() const { return percentile(99.9); }
  [[nodiscard]] Duration min() const { return static_cast<Duration>(hist_.min()); }
  [[nodiscard]] Duration max() const { return static_cast<Duration>(hist_.max()); }
  [[nodiscard]] double mean() const { return hist_.mean(); }

  /// The backing histogram, for report code that merges per-region stats or
  /// snapshots them through the registry.
  [[nodiscard]] const obs::LogHistogram& histogram() const { return hist_; }

 private:
  obs::LogHistogram hist_;
};

/// Averages samples into fixed-width time buckets (paper Figure 10 reports
/// average response time over wall-clock time).
///
/// Storage is sparse (one map node per non-empty bucket) and capped at
/// `max_buckets` distinct buckets, so a single far-future timestamp costs
/// one node instead of resizing a dense array to gigabytes — open-loop
/// runs with multi-hour horizons stay bounded. Samples that would create a
/// bucket beyond the cap are counted in dropped() instead of recorded.
class TimeSeries {
 public:
  static constexpr std::size_t kDefaultMaxBuckets = 1 << 20;

  /// Throws std::invalid_argument unless bucket_width > 0 (a zero width
  /// used to divide by zero on the first add).
  explicit TimeSeries(Duration bucket_width,
                      std::size_t max_buckets = kDefaultMaxBuckets);

  void add(Time at, double value);

  struct Point {
    Time bucket_start;
    double average;
    std::size_t count;
  };
  [[nodiscard]] std::vector<Point> points() const;

  /// Non-empty buckets currently stored.
  [[nodiscard]] std::size_t bucket_nodes() const { return buckets_.size(); }
  /// Samples discarded because they addressed a new bucket past the cap.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  struct Bucket {
    double sum = 0;
    std::size_t count = 0;
  };
  Duration bucket_;
  std::size_t max_buckets_;
  std::map<std::uint64_t, Bucket> buckets_;  // bucket index -> aggregate
  std::size_t dropped_ = 0;
};

/// Formats microseconds as "12.3 ms" for report output.
std::string format_ms(Duration d);

}  // namespace spider
