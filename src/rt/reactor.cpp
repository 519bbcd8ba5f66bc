#include "src/rt/reactor.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace tc::rt {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Reactor::Reactor()
    : wheel_(kWheelSlots), start_(std::chrono::steady_clock::now()) {
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
  if (delay_seconds < 0) delay_seconds = 0;
  const double deadline = now() + delay_seconds;
  auto tick = static_cast<std::int64_t>(deadline / kTickSeconds);
  if (tick <= processed_tick_) tick = processed_tick_ + 1;
  TimerEntry e;
  e.id = next_timer_++;
  e.deadline = deadline;
  e.fn = std::move(fn);
  const TimerId id = e.id;
  wheel_[static_cast<std::size_t>(tick) % kWheelSlots].push_back(std::move(e));
  ++timers_live_;
  return id;
}

void Reactor::cancel(TimerId id) {
  if (id != 0) cancelled_.insert(id);
}

void Reactor::post(std::function<void()> fn) { posted_.push_back(std::move(fn)); }

void Reactor::fire_due_timers() {
  const double t = now();
  // Only fully elapsed ticks: an entry due later in the current tick must
  // stay for the next pass, not wait a whole wheel rotation.
  const auto target = static_cast<std::int64_t>(t / kTickSeconds) - 1;
  while (processed_tick_ < target && !stopped_) {
    ++processed_tick_;
    auto& slot = wheel_[static_cast<std::size_t>(processed_tick_) % kWheelSlots];
    // Collect due entries first: fired callbacks may schedule new timers
    // into this very slot.
    std::vector<TimerEntry> due;
    for (std::size_t i = 0; i < slot.size();) {
      if (cancelled_.count(slot[i].id) != 0) {
        cancelled_.erase(slot[i].id);
        slot[i] = std::move(slot.back());
        slot.pop_back();
        --timers_live_;
      } else if (slot[i].deadline <= t) {
        due.push_back(std::move(slot[i]));
        slot[i] = std::move(slot.back());
        slot.pop_back();
        --timers_live_;
      } else {
        ++i;  // a future rotation owns this entry
      }
    }
    for (TimerEntry& e : due) {
      if (cancelled_.erase(e.id) != 0) continue;
      e.fn();
      if (stopped_) return;
    }
  }
}

int Reactor::poll_timeout_ms() const {
  if (!posted_.empty()) return 0;
  if (timers_live_ > 0) return static_cast<int>(kTickSeconds * 1000);
  return 50;
}

void Reactor::run() {
  stopped_ = false;
  epoll_event events[64];
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

    const int n = ::epoll_wait(epfd_, events, 64, poll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
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
        if (it != handlers_.end()) it->second->on_readable();
      }
      if ((ev & EPOLLOUT) != 0) {
        const auto it = handlers_.find(fd);
        if (it != handlers_.end()) it->second->on_writable();
      }
    }
  }
}

}  // namespace tc::rt
