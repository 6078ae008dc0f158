// Micro-benchmark: flat 4-ary heap EventQueue vs the std::map-based
// reference scheduler.
//
// The reference below is the pre-optimisation EventQueue verbatim: an
// ordered map of (time, id) -> handler plus an id -> time index, two
// node allocations and two tree walks per event, O(log n) cancel. The
// production queue replaces it with a flat 4-ary min-heap (amortized O(1)
// push for monotone arrivals, O(1) tombstone cancel, compaction when more
// than half the heap is dead). Both run the same deterministic
// schedule/cancel/fire storm; the CI perf-smoke gate compares them
// (expected >= 3x, gated at --gate <x>, default off).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace spider::bench {
namespace {

constexpr std::size_t kEvents = 400000;
// Standing far-future timers (armed view-change / announce timeouts in the
// simulator): they deepen the pending set without firing during the storm.
constexpr std::size_t kStanding = 30000;
constexpr std::uint64_t kSeed = 4242;

/// Pre-optimisation scheduler, retained as the perf reference.
class MapEventQueue {
 public:
  using Fn = std::function<void()>;
  using EventId = std::uint64_t;

  EventId schedule_at(Time at, Fn fn) {
    if (at < now_) at = now_;
    EventId id = next_id_++;
    events_.emplace(Key{at, id}, std::move(fn));
    index_.emplace(id, at);
    return id;
  }
  void cancel(EventId id) {
    auto it = index_.find(id);
    if (it == index_.end()) return;
    events_.erase(Key{it->second, id});
    index_.erase(it);
  }
  bool run_next() {
    if (events_.empty()) return false;
    auto it = events_.begin();
    now_ = it->first.first;
    Fn fn = std::move(it->second);
    index_.erase(it->first.second);
    events_.erase(it);
    fn();
    return true;
  }
  [[nodiscard]] Time now() const { return now_; }

 private:
  using Key = std::pair<Time, EventId>;
  Time now_ = 0;
  EventId next_id_ = 1;
  std::map<Key, Fn> events_;
  std::map<EventId, Time> index_;
};

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Deterministic timer-churn storm, representative of the simulator: a
/// rolling window of pending timers; each fired event schedules a few
/// successors and cancels one of them (retransmission timers being armed
/// and disarmed), so cancels hit both queues continuously.
template <typename Queue>
std::uint64_t storm(Queue& q) {
  std::uint64_t fired = 0;
  std::uint64_t x = kSeed;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t cancellable = 0;
  std::function<void()> tick = [&] {
    ++fired;
    if (fired >= kEvents) return;
    q.schedule_at(q.now() + 1 + static_cast<Time>(rnd() % 64), tick);
    // Arm-and-disarm: a decoy timer cancelled on the spot half the time.
    cancellable = q.schedule_at(q.now() + 128 + static_cast<Time>(rnd() % 512), [&fired] { ++fired; });
    if (rnd() % 2 == 0) q.cancel(cancellable);
  };
  for (std::size_t i = 0; i < kStanding; ++i) {
    q.schedule_at(static_cast<Time>(1u << 30) + static_cast<Time>(rnd() % kStanding),
                  [&fired] { ++fired; });
  }
  for (int i = 0; i < 16; ++i) q.schedule_at(static_cast<Time>(i), tick);
  while (fired < kEvents && q.run_next()) {
  }
  return fired;
}

}  // namespace
}  // namespace spider::bench

int main(int argc, char** argv) {
  using namespace spider;
  using namespace spider::bench;
  double gate = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gate" && i + 1 < argc) gate = std::atof(argv[i + 1]);
  }

  // Warm-up + equivalence: both queues fire the same number of events.
  std::uint64_t a, b;
  {
    MapEventQueue mq;
    a = storm(mq);
    EventQueue hq;
    b = storm(hq);
  }
  if (a != b) {
    std::printf("FAIL: queues fired different event counts (%llu vs %llu)\n",
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    return 1;
  }

  double t0 = now_s();
  {
    MapEventQueue mq;
    storm(mq);
  }
  double map_s = now_s() - t0;
  t0 = now_s();
  {
    EventQueue hq;
    storm(hq);
  }
  double heap_s = now_s() - t0;

  double map_eps = static_cast<double>(kEvents) / map_s;
  double heap_eps = static_cast<double>(kEvents) / heap_s;
  double speedup = map_s / heap_s;
  std::printf("timer churn, %zu fired events (schedule + 50%% cancel storm)\n", kEvents);
  std::printf("  std::map reference: %10.0f events/s\n", map_eps);
  std::printf("  flat 4-ary heap:    %10.0f events/s\n", heap_eps);
  std::printf("  speedup:            %10.2fx\n", speedup);

  if (gate > 0.0 && speedup < gate) {
    std::printf("FAIL: speedup %.2fx below gate %.2fx\n", speedup, gate);
    return 1;
  }
  if (gate > 0.0) std::printf("OK: speedup %.2fx >= gate %.2fx\n", speedup, gate);
  return 0;
}
