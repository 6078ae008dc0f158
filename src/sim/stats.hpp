// Measurement utilities: latency histograms with percentiles, bucketed time
// series (for the adaptability timeline) and CPU utilization sampling.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace spider {

/// Collects duration samples; percentiles computed on demand.
///
/// Default mode is kBucketed: samples land in an obs::LogHistogram, whose
/// buckets grow only to the highest one used (~7.6 KiB at most) and not
/// with run length, so million-op benchmarks no longer hoard one Duration
/// per request. Bucketed
/// percentiles carry the histogram's error bound — relative error at most
/// 2^-5 ~= 3.2%, exact for values below 32 µs. kExact keeps every sample
/// and interpolates percentiles precisely; use it for small-N tests that
/// assert exact quantiles.
class LatencyStats {
 public:
  enum class Mode : std::uint8_t { kBucketed, kExact };

  LatencyStats() = default;
  explicit LatencyStats(Mode mode) : mode_(mode) {}

  void add(Duration sample);
  void clear();

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] Duration percentile(double p) const;  // p in [0, 100]
  [[nodiscard]] Duration median() const { return percentile(50.0); }
  [[nodiscard]] Duration p90() const { return percentile(90.0); }
  [[nodiscard]] Duration p99() const { return percentile(99.0); }
  [[nodiscard]] Duration p999() const { return percentile(99.9); }
  [[nodiscard]] Duration min() const;
  [[nodiscard]] Duration max() const;
  [[nodiscard]] double mean() const;

  /// Bucketed-mode backing histogram (empty in exact mode) — lets report
  /// code merge per-region stats or snapshot them through the registry.
  [[nodiscard]] const obs::LogHistogram& histogram() const { return hist_; }

 private:
  Mode mode_ = Mode::kBucketed;
  obs::LogHistogram hist_;
  mutable std::vector<Duration> samples_;
  mutable bool sorted_ = true;
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

/// Utilization of a single-core CPU over a measurement window.
struct CpuWindow {
  Duration busy_at_start = 0;
  Time window_start = 0;

  void begin(Time now, Duration busy_accum) {
    window_start = now;
    busy_at_start = busy_accum;
  }
  /// Clamped to [0, 100]: a skipped begin() or overlapping windows can make
  /// the raw ratio negative or exceed the window (busy time accrued before
  /// window_start), and reports feed capacity models that assume a
  /// percentage. busy_accum must be monotone across one window.
  [[nodiscard]] double utilization(Time now, Duration busy_accum) const {
    assert(busy_accum >= busy_at_start && "busy_accum must not run backwards");
    Duration elapsed = now - window_start;
    if (elapsed <= 0) return 0.0;
    double u = 100.0 * static_cast<double>(busy_accum - busy_at_start) /
               static_cast<double>(elapsed);
    if (u < 0.0) return 0.0;
    if (u > 100.0) return 100.0;
    return u;
  }
};

/// Formats microseconds as "12.3 ms" for report output.
std::string format_ms(Duration d);

}  // namespace spider
