#include <gtest/gtest.h>

#include "sim/stats.hpp"

namespace spider {
namespace {

TEST(LatencyStats, EmptyIsZero) {
  LatencyStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.median(), 0);
  EXPECT_EQ(s.p90(), 0);
  EXPECT_EQ(s.p99(), 0);
  EXPECT_EQ(s.p999(), 0);
}

TEST(LatencyStats, Mean) {
  LatencyStats s;  // mean is exact (sum/count)
  for (Duration v : {1, 2, 3, 4}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

// ---- bucketed: bounded memory, bounded error -----------------------------

TEST(LatencyStats, BucketedSmallValuesExact) {
  // Values below 32 land in width-1 buckets, so small-N quantiles are exact.
  LatencyStats s;
  for (Duration v : {1, 2, 3, 4, 5}) s.add(v);
  EXPECT_EQ(s.median(), 3);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 5);
}

TEST(LatencyStats, BucketedPercentileWithinErrorBound) {
  // Documented bound: relative error <= 2^-(kSubBits+1) = 3.125%.
  LatencyStats s;
  for (int i = 1; i <= 10'000; ++i) s.add(i);
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = p / 100.0 * 10'000.0;
    const auto got = static_cast<double>(s.percentile(p));
    EXPECT_NEAR(got, exact, exact * 0.03125 + 1.0) << "p=" << p;
  }
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 10'000);
  EXPECT_DOUBLE_EQ(s.mean(), 5000.5);  // sum/count: exact in bucketed mode
}

TEST(LatencyStats, BucketedClampsNegativeSamples) {
  LatencyStats s;
  s.add(-100);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 0);
}

TEST(LatencyStats, BucketedClearResets) {
  LatencyStats s;
  for (int i = 0; i < 100; ++i) s.add(1000 + i);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.median(), 0);
  s.add(7);
  EXPECT_EQ(s.median(), 7);
}

TEST(LatencyStats, OutOfRangePercentileClamped) {
  // p outside [0, 100] clamps to the extremes.
  LatencyStats bucketed;
  for (Duration v : {10, 20, 30}) bucketed.add(v);
  EXPECT_EQ(bucketed.percentile(-10), 10);
  EXPECT_EQ(bucketed.percentile(250), 30);
}

TEST(LatencyStats, EmptyBucketedPercentileIsZero) {
  LatencyStats s;
  EXPECT_EQ(s.percentile(-5), 0);
  EXPECT_EQ(s.percentile(50), 0);
  EXPECT_EQ(s.percentile(1000), 0);
}

TEST(FormatMs, Formats) {
  EXPECT_EQ(format_ms(12345), "12.3 ms");
  EXPECT_EQ(format_ms(0), "0.0 ms");
}

}  // namespace
}  // namespace spider
