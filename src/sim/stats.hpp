// Measurement utilities: latency histograms with percentiles, and the
// millisecond formatting reports use.
#pragma once

#include <cstdint>
#include <string>

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

/// Formats microseconds as "12.3 ms" for report output.
std::string format_ms(Duration d);

}  // namespace spider
