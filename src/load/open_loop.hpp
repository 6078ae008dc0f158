// Open-loop workload driver: Poisson arrivals over a simulated client pool.
//
// The runner owns the arrival process — one self-rescheduling event chain
// drawing exponential inter-arrival gaps at the profile's offered rate —
// and fans each arrival out to the next client slot round-robin. Arrivals
// never wait for completions, so when the system saturates, latency (and
// client queue depth) grows without the generator slowing down; that is
// the defining property a closed-loop harness lacks.
//
// Every per-op latency is a *sojourn* time — completion minus arrival,
// stamped by the runner itself so SpiderClient pools and ShardedClient
// routers measure identically — recorded straight into obs::LogHistograms
// owned by the World's MetricsRegistry (no ad-hoc sample vectors, bounded
// memory at any run length). Counters and histograms live under
// role="load", so a registry snapshot carries the workload's view of the
// run next to the protocol metrics.
#pragma once

#include <functional>
#include <string_view>

#include "common/bytes.hpp"
#include "load/workload.hpp"
#include "obs/metrics.hpp"

namespace spider {
class World;
}

namespace spider::load {

/// Operation classes the runner submits.
enum class LoadOp : std::uint8_t { Write, WeakRead, StrongRead };

std::string_view load_op_name(LoadOp op);

/// One run's results, sourced from the registry metrics the runner owns.
struct OpenLoopResult {
  double offered_rate = 0;          ///< profile rate (ops/s)
  std::uint64_t arrivals_total = 0; ///< all arrivals, warmup included
  std::uint64_t arrivals = 0;       ///< arrivals inside the measure window
  std::uint64_t completed = 0;      ///< in-window arrivals completed by drain end
  double goodput = 0;               ///< completed / measure seconds
  std::uint64_t p50_us = 0;         ///< in-window sojourn percentiles
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  double mean_us = 0;
  std::uint64_t max_queue_depth = 0;  ///< worst per-client depth at any arrival

  /// In-window arrivals still unanswered when the run ended: the op backlog
  /// a saturated system never served.
  [[nodiscard]] std::uint64_t incomplete() const { return arrivals - completed; }
};

class OpenLoopRunner {
 public:
  using Callback = std::function<void(Bytes result, Duration latency)>;
  /// Issues one op. Implementations must not block the arrival process:
  /// SpiderClient pools use fire(), ShardedClient pools the router entry
  /// points (both enqueue and return immediately; `done` fires at the
  /// reply quorum). The Duration handed to `done` is ignored — the runner
  /// stamps sojourn latency itself.
  using Submit = std::function<void(LoadOp op, Bytes encoded, Callback done)>;
  /// Optional per-client congestion probe (e.g. SpiderClient::queue_depth
  /// or ShardedClient::pending_ops), sampled after each submission.
  using DepthProbe = std::function<std::size_t()>;

  /// Validates the profile (std::invalid_argument on nonsense) and forks a
  /// dedicated RNG stream off the World seed, so two same-seed runs replay
  /// identical arrival schedules.
  OpenLoopRunner(World& world, OpenLoopProfile profile);

  /// Adds one simulated client slot; arrivals round-robin over slots in
  /// insertion order.
  void add_client(Submit submit, DepthProbe depth = {});

  /// Runs warmup + measure windows of Poisson arrivals, then drains for
  /// profile.drain, and reports the window's curve point. The runner (and
  /// its client pool) must outlive any further event processing on this
  /// World: completion callbacks hold a pointer to the runner. Throws
  /// std::logic_error when no client was added.
  OpenLoopResult run();

 private:
  struct Slot {
    Submit submit;
    DepthProbe depth;
  };

  void schedule_arrival();
  void on_arrival();
  obs::LogHistogram& class_histogram(LoadOp op);

  World& world_;
  OpenLoopProfile profile_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;
  Time measure_from_ = 0;
  Time stop_ = 0;

  // Registry-backed measurement (references valid for the World's lifetime).
  obs::LogHistogram& sojourn_;          // in-window, all classes
  obs::LogHistogram& sojourn_write_;
  obs::LogHistogram& sojourn_weak_;
  obs::LogHistogram& sojourn_strong_;
  obs::Counter& arrivals_total_;
  obs::Counter& arrivals_;
  obs::Counter& completed_;
  obs::Gauge& max_depth_;
};

}  // namespace spider::load
