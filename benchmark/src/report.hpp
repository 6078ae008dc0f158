// Metric records and their JSON-lines rendering.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace spider::bench {

/// Which clock a number comes from: the simulator's modeled time, which a
/// seed fully determines, or the host (wall clock, CPU time, memory).
enum class Clock { kSim, kWall };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Clock clock = Clock::kSim;
  std::uint64_t n = 0;  ///< samples or runs behind the value
};

/// Nearest-rank percentile (per_mille / 10) of `v`; 0 when `v` is empty.
inline std::uint64_t nearest_rank(std::vector<std::uint64_t> v, std::size_t per_mille) {
  const std::size_t rank = (per_mille * v.size() + 999) / 1000;
  if (rank == 0) return 0;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

class Report {
 public:
  void add(std::string name, double value, std::string unit, Clock clock, std::uint64_t n = 1) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), clock, n});
  }

  /// Adds the nearest-rank percentile `per_mille`/10 of `us` (microseconds)
  /// in ms, but only when at least ten samples lie beyond it.
  void add_percentile(const std::string& name, const std::vector<std::uint64_t>& us,
                      std::size_t per_mille, Clock clock) {
    const std::size_t n = us.size();
    const std::size_t rank = (per_mille * n + 999) / 1000;
    if (rank == 0 || n < rank + 10) return;
    add(name, static_cast<double>(nearest_rank(us, per_mille)) / 1000.0, "ms", clock, n);
  }

  /// p50 and p99 of one latency population, named <prefix>_p50_ms etc.
  void add_latency(const std::string& prefix, const std::vector<std::uint64_t>& us,
                   Clock clock) {
    add_percentile(prefix + "_p50_ms", us, 500, clock);
    add_percentile(prefix + "_p99_ms", us, 990, clock);
  }

  /// One JSON object per metric:
  /// {"workload","metric","value","unit","clock","n"}.
  [[nodiscard]] std::string json_lines(const std::string& workload) const {
    std::string out;
    char buf[512];
    for (const Metric& m : metrics_) {
      char value[32] = "null";  // a value that is not a number is a bug; keep the JSON valid
      if (std::isfinite(m.value)) std::snprintf(value, sizeof(value), "%.17g", m.value);
      std::snprintf(buf, sizeof(buf),
                    "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                    "\"clock\": \"%s\", \"n\": %llu}\n",
                    workload.c_str(), m.name.c_str(), value, m.unit.c_str(),
                    m.clock == Clock::kSim ? "sim" : "wall",
                    static_cast<unsigned long long>(m.n));
      out += buf;
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace spider::bench
