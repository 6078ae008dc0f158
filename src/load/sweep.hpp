// Rate sweep: walk offered load upward and find the saturation knee.
//
// Each point of the ladder stands up a *fresh* deployment from the same
// seed (so points differ only in offered rate, not in accumulated state),
// runs the open-loop driver, and records a latency-vs-throughput row. The
// knee is the first rate where the system stops behaving like an unloaded
// queue: p99 sojourn exceeds 5x the low-load baseline (the ladder's first
// point), or completions drop below 90% of in-window arrivals (the service
// rate stopped tracking the arrival process and left a backlog unserved). The
// ladder early-stops `points_past_knee` points after the knee so sweeps
// don't burn time deep inside collapse.
//
// Everything is deterministic: same SweepConfig + seed => byte-identical
// rows_text() and (optionally captured) registry snapshots.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "load/open_loop.hpp"

namespace spider::load {

struct SweepConfig {
  std::uint32_t shards = 1;      ///< 1 = standalone SpiderSystem (no router)
  std::uint64_t max_batch = 1;   ///< PBFT request batching knob
  std::vector<double> rates;     ///< offered-rate ladder, ascending ops/s
  std::size_t points_past_knee = 1;  ///< extra ladder points run after the knee
  std::uint64_t seed = 42;
  OpenLoopProfile profile;  ///< per-point profile; `rate` is overridden
  bool capture_snapshots = false;  ///< store each point's registry snapshot
  /// Run every point over real loopback sockets (net::LoopbackTransport +
  /// net::RealtimeDriver) instead of the deterministic sim network. One
  /// virtual microsecond then tracks one wall microsecond, so the measure
  /// window costs real time and rows are no longer byte-deterministic —
  /// but modeled CPU costs still bound throughput, so the ladder finds a
  /// real saturation knee on a socket-backed deployment.
  bool loopback = false;
};

struct RateRow {
  double offered = 0;
  OpenLoopResult result;
  std::string snapshot;  ///< registry snapshot JSON (capture_snapshots only)
};

/// Deterministic one-line rendering of a row (the byte-identity surface
/// pinned by the determinism test and echoed into BENCH rows).
std::string row_text(std::uint32_t shards, std::uint64_t max_batch, const RateRow& row);

struct SweepResult {
  std::uint32_t shards = 1;
  std::uint64_t max_batch = 1;
  std::vector<RateRow> rows;
  std::optional<std::size_t> knee_index;  ///< into rows

  [[nodiscard]] std::optional<double> knee_rate() const {
    if (!knee_index) return std::nullopt;
    return rows[*knee_index].offered;
  }
  /// All rows (plus the knee verdict) as deterministic text.
  [[nodiscard]] std::string rows_text() const;
};

/// Pure knee detector over already-collected rows (unit-testable without a
/// deployment): first index whose p99 exceeds `p99_factor` x the first
/// row's p99, or whose completions fall below `goodput_frac` x in-window
/// arrivals (realized arrivals, not the nominal offered rate — low-rate
/// Poisson samples deviate several percent from rate x window). Returns
/// nullopt with fewer than two rows or when no row qualifies. A zero
/// baseline p99 counts as 1 us so the factor test stays meaningful.
std::optional<std::size_t> detect_knee(const std::vector<RateRow>& rows,
                                      double p99_factor, double goodput_frac);

/// Runs the ladder. `on_row` (optional) fires after each point — bench
/// mains use it to stream BENCH JSON rows. Throws std::invalid_argument
/// for an empty or non-ascending ladder.
SweepResult run_sweep(const SweepConfig& cfg,
                      const std::function<void(const RateRow&)>& on_row = {});

}  // namespace spider::load
