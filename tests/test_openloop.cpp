// Open-loop workload driver: generators, sojourn accounting, knee
// detection, and the byte-identical determinism contract the rate sweep
// advertises (same SweepConfig + seed => identical rows and snapshots).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "load/open_loop.hpp"
#include "load/sweep.hpp"
#include "load/workload.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

namespace spider::load {
namespace {

// ---- generators ----------------------------------------------------------

TEST(Zipf, InvalidConstructionThrows) {
  EXPECT_THROW(ZipfGenerator(0, 0.99), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(16, -0.1), std::invalid_argument);
}

TEST(Zipf, DeterministicForEqualSeeds) {
  ZipfGenerator z(100, 0.99);
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.draw(a), z.draw(b));
}

TEST(Zipf, SkewsTowardLowRanks) {
  ZipfGenerator z(100, 0.99);
  Rng rng(11);
  std::vector<std::size_t> counts(100, 0);
  for (int i = 0; i < 20'000; ++i) {
    const std::size_t r = z.draw(rng);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  // Rank 0 is the hottest key by a wide margin under theta=0.99.
  EXPECT_GT(counts[0], 5 * counts[50]);
  EXPECT_GT(counts[0], 10 * counts[99]);
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator z(10, 0.0);
  Rng rng(3);
  std::vector<std::size_t> counts(10, 0);
  for (int i = 0; i < 10'000; ++i) ++counts[z.draw(rng)];
  for (std::size_t c : counts) {
    EXPECT_GT(c, 700u);
    EXPECT_LT(c, 1300u);
  }
}

TEST(Workload, ProfileValidation) {
  OpenLoopProfile p;
  EXPECT_NO_THROW(validate_profile(p));
  p.rate = 0;
  EXPECT_THROW(validate_profile(p), std::invalid_argument);
  p = {};
  p.write_fraction = 0.8;
  p.weak_fraction = 0.5;  // mix sums past 1
  EXPECT_THROW(validate_profile(p), std::invalid_argument);
  p = {};
  p.clients = 0;
  EXPECT_THROW(validate_profile(p), std::invalid_argument);
  p = {};
  p.measure = 0;
  EXPECT_THROW(validate_profile(p), std::invalid_argument);
}

TEST(Workload, KeyFormatSortsByRank) {
  EXPECT_EQ(workload_key(0), "k000000");
  EXPECT_EQ(workload_key(42), "k000042");
  EXPECT_LT(workload_key(9), workload_key(10));
}

// ---- knee detector (pure, no deployment) ---------------------------------

RateRow synthetic_row(double offered, std::uint64_t p99_us, std::uint64_t arrivals,
                      std::uint64_t completed) {
  RateRow row;
  row.offered = offered;
  row.result.offered_rate = offered;
  row.result.p99_us = p99_us;
  row.result.arrivals = arrivals;
  row.result.completed = completed;
  row.result.goodput = static_cast<double>(completed);
  return row;
}

TEST(Knee, NeedsTwoRows) {
  std::vector<RateRow> rows;
  EXPECT_FALSE(detect_knee(rows, 5.0, 0.9));
  rows.push_back(synthetic_row(100, 10'000, 100, 100));
  EXPECT_FALSE(detect_knee(rows, 5.0, 0.9));
}

TEST(Knee, P99BlowupTriggers) {
  std::vector<RateRow> rows = {
      synthetic_row(100, 10'000, 100, 100),
      synthetic_row(200, 12'000, 200, 200),
      synthetic_row(400, 80'000, 400, 400),  // 8x baseline p99, no backlog yet
  };
  auto knee = detect_knee(rows, 5.0, 0.9);
  ASSERT_TRUE(knee);
  EXPECT_EQ(*knee, 2u);
}

TEST(Knee, UnservedBacklogTriggers) {
  std::vector<RateRow> rows = {
      synthetic_row(100, 10'000, 100, 100),
      synthetic_row(200, 12'000, 200, 150),  // p99 fine, 25% never completed
  };
  auto knee = detect_knee(rows, 5.0, 0.9);
  ASSERT_TRUE(knee);
  EXPECT_EQ(*knee, 1u);
}

TEST(Knee, PoissonShortfallIsNotAKnee) {
  // Realized arrivals routinely land a few percent under rate x window at
  // low rates; as long as every in-window arrival completes, the system
  // is keeping up and the goodput criterion must not fire.
  std::vector<RateRow> rows = {
      synthetic_row(100, 10'000, 174, 174),  // 87/s realized vs 100 offered
      synthetic_row(200, 12'000, 356, 356),
  };
  EXPECT_FALSE(detect_knee(rows, 5.0, 0.9));
}

TEST(Knee, HealthyCurveHasNone) {
  std::vector<RateRow> rows = {
      synthetic_row(100, 10'000, 100, 100),
      synthetic_row(200, 11'000, 199, 199),
      synthetic_row(400, 12'000, 398, 398),
  };
  EXPECT_FALSE(detect_knee(rows, 5.0, 0.9));
}

// ---- runner + sweep ------------------------------------------------------

OpenLoopProfile small_profile() {
  OpenLoopProfile p;
  p.clients = 64;
  p.key_count = 256;
  p.warmup = kSecond / 2;
  p.measure = kSecond / 2;
  p.drain = kSecond;
  return p;
}

TEST(OpenLoop, SojournIncludesQueueingBehindEarlierOps) {
  // One client slot offered more writes than its one-outstanding ordered
  // lane serves: each arrival queues behind its predecessors. The runner
  // stamps sojourn (completion minus arrival) itself, so its p50 carries
  // that queueing, far above the client's service latency (reply quorum
  // minus transmission).
  World world(21);
  SpiderTopology topo;
  topo.exec_regions = {Region::Virginia};
  SpiderSystem sys(world, topo);
  auto client = sys.make_client(Site{Region::Virginia, 0});

  OpenLoopProfile p = small_profile();
  p.clients = 1;
  p.rate = 400;
  p.write_fraction = 1.0;
  p.weak_fraction = 0.0;
  OpenLoopRunner runner(world, p);
  runner.add_client(
      [&client](LoadOp, Bytes encoded, OpenLoopRunner::Callback done) {
        client->fire(OpKind::Write, std::move(encoded), std::move(done));
      },
      [&client] { return client->queue_depth(); });
  const OpenLoopResult r = runner.run();
  EXPECT_GT(r.max_queue_depth, 1u);  // queued ops count, not just the in-flight one

  const obs::LogHistogram& service = world.metrics().histogram(
      "client_latency_ordered", {.node = client->id(), .role = "client"});
  ASSERT_GT(r.completed, 0u);
  ASSERT_GT(service.count(), 0u);
  EXPECT_GT(r.p50_us, 2 * service.percentile(50.0));
}

TEST(OpenLoop, RunnerRequiresClients) {
  World world(5);
  OpenLoopRunner runner(world, small_profile());
  EXPECT_THROW(runner.run(), std::logic_error);
}

TEST(OpenLoop, SweepValidatesLadder) {
  SweepConfig cfg;
  cfg.profile = small_profile();
  cfg.rates = {};
  EXPECT_THROW(run_sweep(cfg), std::invalid_argument);
  cfg.rates = {400, 200};  // descending
  EXPECT_THROW(run_sweep(cfg), std::invalid_argument);
  cfg.rates = {200, 200};  // not strictly ascending
  EXPECT_THROW(run_sweep(cfg), std::invalid_argument);
}

SweepConfig det_config(std::uint32_t shards) {
  SweepConfig cfg;
  cfg.shards = shards;
  cfg.max_batch = 1;
  cfg.rates = shards > 1 ? std::vector<double>{200} : std::vector<double>{200, 400};
  cfg.seed = 99;
  cfg.profile = small_profile();
  cfg.capture_snapshots = true;
  return cfg;
}

TEST(OpenLoop, SameSeedSweepIsByteIdentical) {
  const SweepConfig cfg = det_config(1);
  const SweepResult a = run_sweep(cfg);
  const SweepResult b = run_sweep(cfg);

  EXPECT_EQ(a.rows_text(), b.rows_text());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_FALSE(a.rows[i].snapshot.empty());
    EXPECT_EQ(a.rows[i].snapshot, b.rows[i].snapshot) << "rate point " << i;
  }

  // The rows are real: in-window ops completed and percentiles came from
  // the registry histograms (which also appear in the snapshot).
  const OpenLoopResult& r = a.rows.front().result;
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.p50_us, 0u);
  EXPECT_LE(r.p50_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.p999_us);
  EXPECT_NE(a.rows.front().snapshot.find("openloop_sojourn_us"), std::string::npos);
}

TEST(OpenLoop, ShardedSweepIsDeterministicToo) {
  const SweepConfig cfg = det_config(2);
  const SweepResult a = run_sweep(cfg);
  const SweepResult b = run_sweep(cfg);
  EXPECT_EQ(a.rows_text(), b.rows_text());
  ASSERT_EQ(a.rows.size(), 1u);
  EXPECT_EQ(a.rows[0].snapshot, b.rows[0].snapshot);
  EXPECT_GT(a.rows[0].result.completed, 0u);
}

}  // namespace
}  // namespace spider::load
