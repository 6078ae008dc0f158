#include "sim/stats.hpp"

#include <cstdio>
#include <stdexcept>

namespace spider {

TimeSeries::TimeSeries(Duration bucket_width, std::size_t max_buckets)
    : bucket_(bucket_width), max_buckets_(max_buckets) {
  if (bucket_width <= 0) {
    throw std::invalid_argument("TimeSeries: bucket_width must be > 0");
  }
  if (max_buckets == 0) {
    throw std::invalid_argument("TimeSeries: max_buckets must be > 0");
  }
}

void TimeSeries::add(Time at, double value) {
  if (at < 0) return;
  auto idx = static_cast<std::uint64_t>(at / bucket_);
  auto it = buckets_.find(idx);
  if (it == buckets_.end()) {
    if (buckets_.size() >= max_buckets_) {
      ++dropped_;
      return;
    }
    it = buckets_.emplace(idx, Bucket{}).first;
  }
  it->second.sum += value;
  it->second.count += 1;
}

std::vector<TimeSeries::Point> TimeSeries::points() const {
  std::vector<Point> out;
  out.reserve(buckets_.size());
  for (const auto& [idx, b] : buckets_) {
    out.push_back(Point{static_cast<Time>(idx) * bucket_,
                        b.sum / static_cast<double>(b.count), b.count});
  }
  return out;
}

std::string format_ms(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", to_ms(d));
  return buf;
}

}  // namespace spider
