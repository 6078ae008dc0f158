// Minimal single-threaded epoll reactor.
//
// Owns one epoll instance, a registry of fd -> I/O callback, and a small
// wall-clock deadline list (used by the transport for reconnect backoff).
// wait() blocks up to the caller's timeout (clamped by the next deadline),
// dispatches ready I/O callbacks, then fires due timers. It blocks in
// epoll_pwait2 (Linux >= 5.11, glibc >= 2.35) because its timespec timeout
// is exact to the microsecond, where epoll_wait's is whole milliseconds.
// Everything runs on the calling thread; no locks anywhere in src/net/.
//
// Callbacks may add/remove fds (including their own) while wait() is
// dispatching: handlers are looked up at dispatch time, so a ready-event
// for a fd removed earlier in the same batch is simply skipped.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

namespace spider::net {

class EpollReactor {
 public:
  using Clock = std::chrono::steady_clock;
  using IoCallback = std::function<void(std::uint32_t events)>;
  using TimerId = std::uint64_t;

  EpollReactor();
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). The reactor does
  /// not own the fd; the caller closes it after remove().
  void add(int fd, std::uint32_t events, IoCallback cb);
  /// Updates the interest set of a registered fd.
  void modify(int fd, std::uint32_t events);
  /// Deregisters the fd. Safe to call from inside its own callback.
  void remove(int fd);
  [[nodiscard]] std::size_t watched() const { return handlers_.size(); }

  /// One-shot wall-clock timer (reconnect backoff). Fires inside wait().
  TimerId add_timer(Clock::time_point when, std::function<void()> fn);
  void cancel_timer(TimerId id);

  /// Waits up to `timeout` (negative = block, zero = poll) for readiness,
  /// dispatches I/O callbacks and due timers. Returns the number of I/O
  /// events handled. Throws std::runtime_error if the kernel lacks
  /// epoll_pwait2.
  std::size_t wait(std::chrono::microseconds timeout);

 private:
  struct Handler {
    IoCallback cb;
  };

  int epfd_ = -1;
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;

  TimerId next_timer_ = 1;
  std::map<std::pair<Clock::time_point, TimerId>, std::function<void()>> timers_;
  std::unordered_map<TimerId, Clock::time_point> timer_index_;
};

}  // namespace spider::net
