// Discrete-event scheduler with a virtual microsecond clock.
//
// Events at equal timestamps run in scheduling order (FIFO), which makes
// whole-system runs fully deterministic for a given seed.
//
// Implementation: a flat 4-ary min-heap ordered by (time, event id). Ids
// are allocated monotonically and never reused, so the id doubles as both
// the FIFO tie-break at equal timestamps (exactly the order the previous
// std::map<pair<Time, EventId>> implementation produced — seed replay stays
// byte-identical) and as the generation counter for lazy cancellation: a
// cancel of an id that already fired is a guaranteed no-op because that
// generation has left `pending_` forever. Cancelled entries stay in the
// heap as tombstones until they surface (O(1) cancel); to bound heap
// garbage the heap is compacted in place whenever more than half of it is
// dead.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace spider {

class EventQueue {
 public:
  using Fn = std::function<void()>;
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  /// Schedules `fn` at absolute time `at` (clamped to now). Returns an id
  /// usable with cancel(). Amortized O(1): a new event later than
  /// everything pending (the common case) never sifts.
  EventId schedule_at(Time at, Fn fn);
  /// Schedules `fn` after `delay` from now.
  EventId schedule_after(Duration delay, Fn fn) { return schedule_at(now_ + delay, std::move(fn)); }

  /// Cancels a pending event; no-op if already fired or cancelled. O(1):
  /// the heap entry becomes a tombstone swept out lazily.
  void cancel(EventId id);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  /// Heap slots currently occupied (live + tombstones); the compaction
  /// invariant keeps this below 2x pending() + a small constant.
  [[nodiscard]] std::size_t heap_slots() const { return heap_.size(); }

  // Lifetime scheduler counters (plain u64 increments on paths that already
  // touch pending_, so the hot-loop cost is noise; exported via
  // World::refresh_platform_metrics()).
  [[nodiscard]] std::uint64_t scheduled_total() const { return scheduled_; }
  [[nodiscard]] std::uint64_t fired_total() const { return fired_; }
  [[nodiscard]] std::uint64_t cancelled_total() const { return cancelled_; }

  /// Timestamp of the earliest live event, or nullopt when none is
  /// pending. Sweeps tombstones off the root (behaviour-neutral); realtime
  /// drivers use this to bound how long they may block on socket readiness.
  [[nodiscard]] std::optional<Time> next_time();

  /// Runs the earliest event; returns false if none pending.
  bool run_next();
  /// Runs all events with time <= t, then sets now() = t.
  void run_until(Time t);
  void run_for(Duration d) { run_until(now_ + d); }
  /// Runs until the queue drains or `max_events` were processed.
  void run_all(std::size_t max_events = 100'000'000);

 private:
  struct Entry {
    Time at;
    EventId id;
    Fn fn;
  };
  static bool before(const Entry& a, const Entry& b) {
    return a.at < b.at || (a.at == b.at && a.id < b.id);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Pops dead entries off the root until the minimum is live (or empty).
  void drop_dead_root();
  void pop_root();
  void maybe_compact();

  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<Entry> heap_;
  std::unordered_set<EventId> pending_;  // live (scheduled, not yet fired/cancelled)
};

}  // namespace spider
