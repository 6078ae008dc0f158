// Observability subsystem tests: log-bucketed histograms (merge, error
// bounds, overflow), the metrics registry (label keying, deterministic
// snapshots, merge), the tracer (ring rotation, request-id correlation),
// the Chrome-trace exporter, the null sink's zero-allocation contract, and
// byte-identical traces across seed replays of a full Spider run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "app/kvstore.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim/world.hpp"
#include "spider/system.hpp"

// ---- allocation counting for the null-sink contract -----------------------
// Overriding the global allocator in this test binary only: every operator
// new bumps a counter, so a scope can assert it allocated nothing.
namespace {
std::uint64_t g_allocs = 0;
}

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// The matching operator new above allocates with malloc, so free is correct;
// GCC cannot see that pairing once these are inlined into callers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace spider {
namespace {

using obs::LogHistogram;
using obs::MetricsRegistry;
using obs::Tracer;

// ---- LogHistogram ---------------------------------------------------------

TEST(LogHistogram, EmptyReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.percentile(99.9), 0u);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 2 * LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::bucket_width(LogHistogram::bucket_index(v)), 1u) << v;
    h.add(v);
  }
  EXPECT_EQ(h.percentile(0), 0u);
  EXPECT_EQ(h.percentile(100), 2 * LogHistogram::kSubBuckets - 1);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 2 * LogHistogram::kSubBuckets - 1);
}

TEST(LogHistogram, BucketGeometryIsConsistent) {
  // bucket_lower/bucket_width invert bucket_index across magnitudes,
  // including the overflow octave at the top of the 64-bit range.
  std::vector<std::uint64_t> probes = {0, 1, 31, 32, 33, 100, 1000, 65535, 1ull << 20,
                                       (1ull << 40) + 12345, ~0ull - 1, ~0ull};
  for (std::uint64_t v : probes) {
    std::size_t i = LogHistogram::bucket_index(v);
    ASSERT_LT(i, LogHistogram::kBuckets) << v;
    EXPECT_LE(LogHistogram::bucket_lower(i), v) << v;
    // v < lower + width, guarding overflow at the top bucket.
    std::uint64_t lower = LogHistogram::bucket_lower(i);
    std::uint64_t width = LogHistogram::bucket_width(i);
    EXPECT_TRUE(width == 0 || v - lower < width || lower + width < lower) << v;
  }
  // Monotone: growing values never map to a smaller bucket.
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 100000; v += 13) {
    std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_GE(i, prev);
    prev = i;
  }
}

TEST(LogHistogram, PercentileWithinDocumentedBound) {
  // Relative error of any quantile <= 2^-(kSubBits+1) = 3.125%.
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.add(v);
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = p / 100.0 * 100000.0;
    const double got = static_cast<double>(h.percentile(p));
    EXPECT_NEAR(got, exact, exact * 0.03125 + 1.0) << "p=" << p;
  }
}

TEST(LogHistogram, OverflowValuesLandInTopBucketsSafely) {
  LogHistogram h;
  h.add(~0ull);
  h.add(~0ull - 1);
  h.add(1ull << 63);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_EQ(h.min(), 1ull << 63);
  // Percentiles clamp to the observed range — no wrap-around garbage.
  EXPECT_GE(h.percentile(50), h.min());
  EXPECT_LE(h.percentile(100), h.max());
}

TEST(LogHistogram, MergeMatchesCombinedStream) {
  LogHistogram a, b, combined;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    std::uint64_t v = x % 1000000;
    (i % 2 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << p;
  }
}

TEST(LogHistogram, WeightedAddAndClear) {
  LogHistogram h;
  h.add(10, 100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.percentile(50), 10u);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, LabelsKeySeparateSeries) {
  MetricsRegistry reg;
  reg.counter("ops", {.node = 1}).inc(5);
  reg.counter("ops", {.node = 2}).inc(7);
  reg.counter("ops", {.node = 1, .role = "client"}).inc(1);
  EXPECT_EQ(reg.counter("ops", {.node = 1}).value(), 5u);
  EXPECT_EQ(reg.counter("ops", {.node = 2}).value(), 7u);
  EXPECT_EQ(reg.counter("ops", {.node = 1, .role = "client"}).value(), 1u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, ReferencesAreStableAcrossInserts) {
  MetricsRegistry reg;
  obs::Counter& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) reg.counter("x" + std::to_string(i), {});
  first.inc();
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.gauge("zz").set(-3);
  reg.counter("aa", {.node = 2}).inc(1);
  reg.counter("aa", {.node = 1}).inc(2);
  reg.histogram("lat", {.node = 1, .role = "client"}).add(100);
  std::string snap = reg.snapshot_json();
  // One JSON object per line; "aa" node 1 sorts before node 2 before the
  // rest; repeated snapshots are byte-identical.
  EXPECT_EQ(snap, reg.snapshot_json());
  std::size_t a1 = snap.find("\"metric\":\"aa\",\"type\":\"counter\",\"node\":1");
  std::size_t a2 = snap.find("\"metric\":\"aa\",\"type\":\"counter\",\"node\":2");
  std::size_t z = snap.find("\"metric\":\"zz\"");
  std::size_t lat = snap.find("\"metric\":\"lat\"");
  ASSERT_NE(a1, std::string::npos) << snap;
  ASSERT_NE(a2, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  ASSERT_NE(lat, std::string::npos);
  EXPECT_LT(a1, a2);
  EXPECT_LT(a2, lat);
  EXPECT_LT(lat, z);
  EXPECT_NE(snap.find("\"p999\""), std::string::npos);
  EXPECT_NE(snap.find("\"unit\":\"us\""), std::string::npos);
  for (char c : {'{', '}'}) {
    EXPECT_EQ(std::count(snap.begin(), snap.end(), c), 4) << c;
  }
}

TEST(MetricsRegistry, MergeFromAddsCountersOverwritesGaugesMergesHistograms) {
  MetricsRegistry a, b;
  a.counter("c").inc(3);
  b.counter("c").inc(4);
  a.gauge("g").set(1);
  b.gauge("g").set(9);
  a.histogram("h").add(10);
  b.histogram("h").add(20);
  b.counter("only_b").inc(1);
  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.gauge("g").value(), 9);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
}

// ---- Tracer ---------------------------------------------------------------

TEST(Tracer, RingModeKeepsLastEventsInOrder) {
  Tracer t(Tracer::Mode::kRing, 8);
  for (Time i = 0; i < 20; ++i) t.instant(i, 1, "cat", "ev");
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  std::vector<obs::TraceEvent> evs = t.snapshot();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].ts, static_cast<Time>(12 + i));
  }
}

TEST(Tracer, RequestIdSeparatesStreamsAndClients) {
  EXPECT_NE(obs::request_id(1, 0), obs::request_id(2, 0));
  EXPECT_NE(obs::request_id(1, 0), obs::request_id(1, 1));
  EXPECT_NE(obs::request_id(1, 5, /*weak=*/false), obs::request_id(1, 5, /*weak=*/true));
}

TEST(Tracer, NullSinkHooksAllocateNothing) {
  // The instrumentation pattern used across the codebase, with no tracer
  // attached: must be a branch and nothing else.
  World world(1);
  ASSERT_EQ(world.tracer(), nullptr);
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 100000; ++i) {
    if (auto* t = world.tracer()) {
      t->instant(world.now(), 1, "never", "reached", "k", static_cast<std::uint64_t>(i));
    }
  }
  EXPECT_EQ(g_allocs, before);
}

TEST(Tracer, RingRecordDoesNotAllocateOnceFull) {
  Tracer t(Tracer::Mode::kRing, 16);
  for (Time i = 0; i < 16; ++i) t.instant(i, 1, "c", "n");
  const std::uint64_t before = g_allocs;
  for (Time i = 16; i < 10000; ++i) t.instant(i, 1, "c", "n");
  EXPECT_EQ(g_allocs, before);
  EXPECT_EQ(t.dropped(), 10000u - 16u);
}

// ---- exporter -------------------------------------------------------------

TEST(TraceExport, EmitsWellFormedChromeTraceWithWindow) {
  Tracer t;
  t.name_process(3, "replica-3");
  t.instant(100, 3, "net-lan", "send", "bytes", 42);
  t.async(obs::Ph::kAsyncBegin, 200, 7, obs::request_id(7, 1), "request", "ordered");
  t.complete(300, 50, 3, "cpu", "task");
  t.async(obs::Ph::kAsyncEnd, 900, 7, obs::request_id(7, 1), "request", "ordered");
  std::string full = obs::chrome_trace_json(t);
  EXPECT_EQ(full.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(full.find("\"process_name\""), std::string::npos);
  EXPECT_NE(full.find("replica-3"), std::string::npos);
  EXPECT_NE(full.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(full.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(full.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(full.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(full.find("\"bytes\":42"), std::string::npos);

  // Window filter: [0, 250] keeps the instant and the begin, drops the rest
  // (metadata rows always survive).
  std::string windowed = obs::chrome_trace_json(t, 0, 250);
  EXPECT_NE(windowed.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(windowed.find("\"ts\":200"), std::string::npos);
  EXPECT_EQ(windowed.find("\"ts\":300"), std::string::npos);
  EXPECT_EQ(windowed.find("\"ts\":900"), std::string::npos);
  EXPECT_NE(windowed.find("\"process_name\""), std::string::npos);
}

// ---- end to end: traced Spider runs ---------------------------------------

std::string traced_spider_run(std::uint64_t seed) {
  World world(seed);
  world.enable_tracing(Tracer::Mode::kFull);
  SpiderTopology topo;
  SpiderSystem sys(world, topo);
  auto client = sys.make_client(Site{Region::Oregon, 0});
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    client->write(kv_put("k" + std::to_string(i), to_bytes("v")),
                  [&done](Bytes, Duration) { ++done; });
  }
  client->weak_read(kv_get("k0"), [&done](Bytes, Duration) { ++done; });
  world.run_for(20 * kSecond);
  EXPECT_EQ(done, 6);
  return obs::chrome_trace_json(*world.tracer());
}

TEST(TraceEndToEnd, SeedReplayProducesByteIdenticalTrace) {
  std::string a = traced_spider_run(42);
  std::string b = traced_spider_run(42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, traced_spider_run(43));
}

TEST(TraceEndToEnd, RequestLifecycleStagesAppear) {
  std::string t = traced_spider_run(42);
  // Client submit -> consensus -> IRMC -> execution -> reply, all present.
  for (const char* marker :
       {"\"ordered\"", "\"direct\"", "\"propose\"", "\"prepared\"", "\"committed\"",
        "\"deliver\"", "rc-send", "rc-deliver", "\"execute\"", "\"reply\"", "\"cat\":\"cpu\"",
        "net-wan", "net-lan", "ag-Virginia/0", "client-Oregon"}) {
    EXPECT_NE(t.find(marker), std::string::npos) << marker;
  }
}

TEST(TraceEndToEnd, MetricsSnapshotIsDeterministicAcrossReplay) {
  auto run = [](std::uint64_t seed) {
    World world(seed);
    SpiderTopology topo;
    SpiderSystem sys(world, topo);
    auto client = sys.make_client(Site{Region::Virginia, 0});
    int done = 0;
    for (int i = 0; i < 4; ++i) {
      client->write(kv_put("k", to_bytes("v")), [&done](Bytes, Duration) { ++done; });
    }
    world.run_for(15 * kSecond);
    EXPECT_EQ(done, 4);
    world.refresh_platform_metrics();
    return world.metrics().snapshot_json();
  };
  std::string a = run(5);
  EXPECT_EQ(a, run(5));
  EXPECT_NE(a.find("client_latency_ordered"), std::string::npos);
  EXPECT_NE(a.find("eventqueue_fired"), std::string::npos);
  EXPECT_NE(a.find("payload_digest_computations"), std::string::npos);
}

}  // namespace
}  // namespace spider
