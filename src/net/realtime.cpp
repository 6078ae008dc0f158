#include "net/realtime.hpp"

#include <algorithm>

namespace spider::net {

namespace {
Time elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}
}  // namespace

RealtimeDriver::RealtimeDriver(World& world, LoopbackTransport& transport)
    : world_(world), transport_(transport) {
  world_.set_run_driver([this](Time target) { run_until_virtual(target); });
}

RealtimeDriver::~RealtimeDriver() { world_.set_run_driver({}); }

void RealtimeDriver::run_until_virtual(Time target) {
  EventQueue& q = world_.queue();
  const Time base_virtual = q.now();
  const auto base_wall = Clock::now();

  for (;;) {
    const Time vnow = base_virtual + elapsed_us(base_wall);
    q.run_until(std::min(vnow, target));
    if (vnow >= target) break;

    // Block on the reactor until the next queue event is due (or the
    // target is reached), bounded so socket deliveries — which schedule
    // *new* queue events — get picked up promptly.
    Time deadline = target;
    if (std::optional<Time> nt = q.next_time(); nt && *nt < deadline) deadline = *nt;
    const Time wait_us = std::clamp<Time>(deadline - vnow, 0, 50 * kMillisecond);
    transport_.poll(std::chrono::microseconds(wait_us));
  }
  // Land the virtual clock exactly on target (the loop may overshoot in
  // wall time; the queue never runs past target above).
  q.run_until(target);
}

}  // namespace spider::net
