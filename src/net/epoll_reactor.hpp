// Minimal single-threaded epoll reactor: fd readiness only.
//
// Owns one epoll instance and a registry of fd -> I/O callback. wait()
// blocks up to the caller's timeout and dispatches ready I/O callbacks; the
// caller owns every deadline (RealtimeDriver passes the gap to the next
// queue event). It blocks in epoll_pwait2 (Linux >= 5.11, glibc >= 2.35)
// because its timespec timeout is exact to the microsecond, where
// epoll_wait's is whole milliseconds. Everything runs on the calling
// thread; no locks anywhere in src/net/.
//
// Callbacks may add/remove fds (including their own) while wait() is
// dispatching: handlers are looked up at dispatch time, so a ready-event
// for a fd removed earlier in the same batch is simply skipped.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

namespace spider::net {

class EpollReactor {
 public:
  using IoCallback = std::function<void(std::uint32_t events)>;

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

  /// Waits up to `timeout` (negative = block, zero = poll) for readiness
  /// and dispatches I/O callbacks. Returns the number of I/O events
  /// handled. Throws std::runtime_error if the kernel lacks epoll_pwait2.
  std::size_t wait(std::chrono::microseconds timeout);

 private:
  struct Handler {
    IoCallback cb;
  };

  int epfd_ = -1;
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;
};

}  // namespace spider::net
