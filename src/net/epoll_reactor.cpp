#include "net/epoll_reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <stdexcept>
#include <vector>

namespace spider::net {

EpollReactor::EpollReactor() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

EpollReactor::~EpollReactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

void EpollReactor::add(int fd, std::uint32_t events, IoCallback cb) {
  auto handler = std::make_shared<Handler>();
  handler->cb = std::move(cb);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("epoll_ctl(ADD) failed");
  }
  handlers_[fd] = std::move(handler);
}

void EpollReactor::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::runtime_error("epoll_ctl(MOD) failed");
  }
}

void EpollReactor::remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);  // fd may already be closed
}

EpollReactor::TimerId EpollReactor::add_timer(Clock::time_point when,
                                              std::function<void()> fn) {
  const TimerId id = next_timer_++;
  timers_.emplace(std::make_pair(when, id), std::move(fn));
  timer_index_.emplace(id, when);
  return id;
}

void EpollReactor::cancel_timer(TimerId id) {
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return;
  timers_.erase(std::make_pair(it->second, id));
  timer_index_.erase(it);
}

std::size_t EpollReactor::wait(std::chrono::microseconds timeout) {
  // Clamp the wait by the next backoff deadline so reconnects fire on time.
  if (!timers_.empty()) {
    const auto left = std::max(
        std::chrono::ceil<std::chrono::microseconds>(timers_.begin()->first.first - Clock::now()),
        std::chrono::microseconds::zero());
    if (timeout.count() < 0 || left < timeout) timeout = left;
  }

  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout.count() / 1'000'000);
  ts.tv_nsec = static_cast<long>(timeout.count() % 1'000'000) * 1000;
  epoll_event events[64];
  int n = ::epoll_pwait2(epfd_, events, 64, timeout.count() < 0 ? nullptr : &ts, nullptr);
  if (n < 0) {
    if (errno == ENOSYS) throw std::runtime_error("epoll_pwait2 unsupported (needs Linux >= 5.11)");
    if (errno != EINTR) throw std::runtime_error("epoll_pwait2 failed");
    n = 0;
  }

  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    // Look the handler up at dispatch time: an earlier callback in this
    // batch may have removed this fd. If the fd number was already reused
    // by a new socket, the new handler sees a spurious level-triggered
    // event, which every callback tolerates (they re-check readiness and
    // handle EAGAIN).
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;
    std::shared_ptr<Handler> h = it->second;  // keep alive across the call
    h->cb(events[i].events);
    ++dispatched;
  }

  // Fire due timers (a timer may schedule new timers; those run next call).
  const auto now = Clock::now();
  std::vector<std::function<void()>> due;
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto it = timers_.begin();
    timer_index_.erase(it->first.second);
    due.push_back(std::move(it->second));
    timers_.erase(it);
  }
  for (auto& fn : due) fn();

  return dispatched;
}

}  // namespace spider::net
