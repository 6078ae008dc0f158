// Bridges the virtual-time event queue and the wall clock.
//
// The sim's protocol stack runs entirely on World's discrete-event queue:
// modeled CPU costs (signing, verification, per-message processing) are
// charged as virtual-time delays, and every timer is a queue event. On the
// socket backend messages travel over real fds instead of scheduled
// delivery events, so someone has to (a) advance the virtual clock and
// (b) pump the reactor. RealtimeDriver does both: it anchors a base pair
// (virtual time, wall time) at each run_until call and then interleaves
//
//   virtual-now = base_virtual + wall-microseconds-elapsed
//   queue.run_until(min(virtual-now, target))   // due protocol work
//   transport.poll(min(next event, target) - virtual-now, <= 50 ms)
//
// so one virtual microsecond == one wall microsecond for the duration of
// the call. The poll waits the exact microsecond gap to the next queue
// event (the reactor blocks in epoll_pwait2), so a modeled CPU completion
// or timer that no socket traffic wakes fires within the host's timer
// slack (~50 us) of its due time; every protocol hop pays that lateness.
// Modeled CPU costs still bound throughput ("modeled CPU, real wire"),
// which is what makes an open-loop saturation knee findable on a loopback
// deployment.
//
// Installing the driver hooks World::run_until/run_for via
// World::set_run_driver, so existing harnesses (OpenLoopRunner,
// SpiderSystem warm-up loops) drive a socket-backed deployment unmodified.
#pragma once

#include <chrono>

#include "common/time.hpp"
#include "net/loopback_transport.hpp"
#include "sim/world.hpp"

namespace spider::net {

class RealtimeDriver {
 public:
  /// Installs itself as `world`'s run driver. Both references must outlive
  /// the driver; the destructor restores pure discrete-event execution.
  RealtimeDriver(World& world, LoopbackTransport& transport);
  ~RealtimeDriver();

  RealtimeDriver(const RealtimeDriver&) = delete;
  RealtimeDriver& operator=(const RealtimeDriver&) = delete;

  /// Advances the world to virtual time `target` (the World::run_until
  /// path), pumping the reactor while waiting for virtual time to elapse.
  void run_until_virtual(Time target);

 private:
  using Clock = std::chrono::steady_clock;

  World& world_;
  LoopbackTransport& transport_;
};

}  // namespace spider::net
