#include "src/rt/reactor.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace tc::rt {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Reactor::Reactor() : start_(std::chrono::steady_clock::now()) {
  epfd_ = ::epoll_create1(0);
  if (epfd_ < 0) throw_errno("epoll_create1");
}

Reactor::~Reactor() {
  if (epfd_ >= 0) ::close(epfd_);
}

double Reactor::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void Reactor::add(int fd, Handler* h) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
    throw_errno("epoll_ctl(ADD)");
  handlers_[fd] = h;
}

void Reactor::remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  // The fd may already be closed; a failed DEL is then expected.
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

Reactor::TimerId Reactor::schedule(double delay_seconds,
                                   std::function<void()> fn) {
  const double deadline = now() + std::max(delay_seconds, 0.0);
  const TimerId id = next_timer_++;
  timers_.emplace(TimerKey{deadline, id}, std::move(fn));
  deadlines_.emplace(id, deadline);
  return id;
}

void Reactor::cancel(TimerId id) {
  const auto it = deadlines_.find(id);
  if (it == deadlines_.end()) return;
  timers_.erase(TimerKey{it->second, id});
  deadlines_.erase(it);
}

void Reactor::post(std::function<void()> fn) { posted_.push_back(std::move(fn)); }

void Reactor::fire_due_timers() {
  // Deadlines up to the time on entry: a callback that re-arms with zero
  // delay lands after `t` and waits for the next turn.
  const double t = now();
  while (!timers_.empty() && timers_.begin()->first.first <= t) {
    auto node = timers_.extract(timers_.begin());
    deadlines_.erase(node.key().second);
    node.mapped()();
    if (stopped_) return;
  }
}

int Reactor::poll_timeout_ms(double t) const {
  if (!posted_.empty()) return 0;
  if (timers_.empty()) return 50;
  // Round up: waking before the deadline would only spin.
  const double ms = std::ceil((timers_.begin()->first.first - t) * 1e3);
  return static_cast<int>(
      std::clamp(ms, 0.0, double{std::numeric_limits<int>::max()}));
}

void Reactor::run() {
  stopped_ = false;
  // At n = 64 peers a turn has ~950 ready fds: one call takes them all.
  constexpr int kMaxEvents = 1024;
  epoll_event events[kMaxEvents];
  double wake = now();
  while (!stopped_) {
    if (!posted_.empty()) {
      std::vector<std::function<void()>> batch;
      batch.swap(posted_);
      for (auto& fn : batch) {
        fn();
        if (stopped_) return;
      }
    }
    fire_due_timers();
    if (stopped_) return;

    const double idle = now();
    turn_max_ = std::max(turn_max_, idle - wake);
    const int n =
        ::epoll_wait(epfd_, events, kMaxEvents, poll_timeout_ms(idle));
    wake = now();
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    ++turns_;
    events_ += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n && !stopped_; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      // Re-look up before every callback: an earlier callback in this
      // batch may have removed (and closed) the fd.
      if ((ev & EPOLLERR) != 0) {
        const auto it = handlers_.find(fd);
        if (it != handlers_.end()) it->second->on_error();
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
        const auto it = handlers_.find(fd);
        if (it != handlers_.end())
          it->second->on_readable((ev & (EPOLLRDHUP | EPOLLHUP)) != 0);
      }
      if ((ev & EPOLLOUT) != 0) {
        const auto it = handlers_.find(fd);
        if (it != handlers_.end()) it->second->on_writable();
      }
    }
  }
}

void RetryTimer::arm() {
  if (timer_ != 0) return;
  timer_ = reactor_.schedule(delay_, [this] {
    timer_ = 0;
    fn_();
  });
  delay_ = std::min(delay_ * 2, kMaxDelay);
}

}  // namespace tc::rt
