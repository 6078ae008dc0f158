// Realtime driver pacing on the socket backend. The reactor waits exactly
// as long as it is asked, so the realtime driver fires a queue event that
// no socket traffic wakes close to its due time instead of rounding the
// wait up to a whole millisecond.
//
// The bound below is wall-clock, so CMake registers this suite RUN_SERIAL:
// a parallel ctest runs nothing beside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "net/loopback_transport.hpp"
#include "net/realtime.hpp"
#include "sim/world.hpp"

namespace spider {
namespace {

using namespace std::chrono_literals;

std::chrono::microseconds median(std::vector<std::chrono::microseconds> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::chrono::microseconds since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               t);
}

TEST(RealtimeDriver, IdleQueueEventsFireOnTime) {
  World world(1);
  net::LoopbackTransport sock;
  world.install_transport(&sock);
  net::RealtimeDriver driver(world, sock);

  // Events 1.1 ms apart: a whole-millisecond wait overshoots each by ~0.9 ms.
  constexpr int kEvents = 20;
  constexpr Duration kGap = 1100;
  const Time base = world.now();
  const auto wall_base = std::chrono::steady_clock::now();
  std::vector<std::chrono::microseconds> late;
  for (int i = 1; i <= kEvents; ++i) {
    const Duration due = i * kGap;
    world.queue().schedule_at(base + due, [&late, wall_base, due] {
      late.push_back(since(wall_base) - std::chrono::microseconds(due));
    });
  }
  world.run_for((kEvents + 1) * kGap);

  ASSERT_EQ(late.size(), static_cast<std::size_t>(kEvents));
  EXPECT_LT(median(late), 400us);
}

}  // namespace
}  // namespace spider
