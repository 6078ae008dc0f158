#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace spider::obs {

namespace {

int msb_index(std::uint64_t v) {
  // v > 0 precondition; index of highest set bit.
  return 63 - __builtin_clzll(v);
}

}  // namespace

std::size_t LogHistogram::bucket_index(std::uint64_t v) {
  if (v < 2 * kSubBuckets) return static_cast<std::size_t>(v);  // exact region
  int msb = msb_index(v);
  int shift = msb - kSubBits;
  std::uint64_t sub = (v >> shift) & (kSubBuckets - 1);
  return (static_cast<std::size_t>(shift + 1) << kSubBits) + static_cast<std::size_t>(sub);
}

std::uint64_t LogHistogram::bucket_lower(std::size_t i) {
  if (i < 2 * kSubBuckets) return static_cast<std::uint64_t>(i);
  std::size_t octave = i >> kSubBits;       // == shift + 1
  std::uint64_t sub = i & (kSubBuckets - 1);
  int shift = static_cast<int>(octave) - 1;
  return (kSubBuckets + sub) << shift;
}

std::uint64_t LogHistogram::bucket_width(std::size_t i) {
  if (i < 2 * kSubBuckets) return 1;
  return 1ull << ((i >> kSubBits) - 1);
}

void LogHistogram::add(std::uint64_t v, std::uint64_t n) {
  if (n == 0) return;
  std::size_t i = bucket_index(v);
  grow_to(i + 1);
  buckets_[i] += n;
  count_ += n;
  sum_ += v * n;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

void LogHistogram::grow_to(std::size_t n) {
  if (n <= buckets_.size()) return;
  buckets_.reserve(n);  // exact: no doubling slack past the highest bucket
  buckets_.resize(n);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  grow_to(other.buckets_.size());
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

void LogHistogram::clear() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
}

double LogHistogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Nearest-rank: smallest bucket whose cumulative count reaches rank.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      std::uint64_t rep = bucket_lower(i) + bucket_width(i) / 2;  // midpoint
      if (rep < min_) rep = min_;
      if (rep > max_) rep = max_;
      return rep;
    }
  }
  return max_;  // unreachable when count_ > 0
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               const MetricLabels& labels,
                                               char type) {
  Key k{std::string(name), labels.node, labels.shard, std::string(labels.role)};
  Entry& e = metrics_[std::move(k)];
  if (!e.c && !e.g && !e.h) e.type = type;
  return e;
}

Counter& MetricsRegistry::counter(std::string_view name, MetricLabels labels) {
  Entry& e = entry(name, labels, 'c');
  if (!e.c) e.c = std::make_unique<Counter>();
  return *e.c;
}

Gauge& MetricsRegistry::gauge(std::string_view name, MetricLabels labels) {
  Entry& e = entry(name, labels, 'g');
  if (!e.g) e.g = std::make_unique<Gauge>();
  return *e.g;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name, MetricLabels labels,
                                         std::string_view unit) {
  Entry& e = entry(name, labels, 'h');
  if (!e.h) {
    e.h = std::make_unique<LogHistogram>();
    e.unit = std::string(unit);
  }
  return *e.h;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [k, e] : other.metrics_) {
    MetricLabels labels{k.node, k.shard, k.role};
    switch (e.type) {
      case 'c':
        if (e.c) counter(k.name, labels).inc(e.c->value());
        break;
      case 'g':
        if (e.g) gauge(k.name, labels).set(e.g->value());
        break;
      case 'h':
        if (e.h) histogram(k.name, labels, e.unit).merge(*e.h);
        break;
      default:
        break;
    }
  }
}

std::string MetricsRegistry::snapshot_json() const {
  std::string out;
  char buf[256];
  auto head = [&](const Key& k, const char* type) {
    std::snprintf(buf, sizeof(buf),
                  "{\"metric\":\"%s\",\"type\":\"%s\",\"node\":%u,\"shard\":%u,"
                  "\"role\":\"%s\"",
                  k.name.c_str(), type, k.node, k.shard, k.role.c_str());
    out += buf;
  };
  for (const auto& [k, e] : metrics_) {
    switch (e.type) {
      case 'c':
        head(k, "counter");
        std::snprintf(buf, sizeof(buf), ",\"value\":%llu}\n",
                      static_cast<unsigned long long>(e.c ? e.c->value() : 0));
        out += buf;
        break;
      case 'g':
        head(k, "gauge");
        std::snprintf(buf, sizeof(buf), ",\"value\":%lld}\n",
                      static_cast<long long>(e.g ? e.g->value() : 0));
        out += buf;
        break;
      case 'h': {
        head(k, "histogram");
        const LogHistogram& h = *e.h;
        std::snprintf(
            buf, sizeof(buf),
            ",\"unit\":\"%s\",\"count\":%llu,\"min\":%llu,\"max\":%llu,"
            "\"mean\":%.3f,\"p50\":%llu,\"p99\":%llu,\"p999\":%llu}\n",
            e.unit.c_str(), static_cast<unsigned long long>(h.count()),
            static_cast<unsigned long long>(h.min()),
            static_cast<unsigned long long>(h.max()), h.mean(),
            static_cast<unsigned long long>(h.percentile(50.0)),
            static_cast<unsigned long long>(h.percentile(99.0)),
            static_cast<unsigned long long>(h.percentile(99.9)));
        out += buf;
        break;
      }
      default:
        break;
    }
  }
  return out;
}

bool MetricsRegistry::write_snapshot(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << snapshot_json();
  return static_cast<bool>(f);
}

}  // namespace spider::obs
