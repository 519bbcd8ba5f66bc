// Single-threaded epoll reactor: the event loop under the live deployment
// runtime (tools/tchain-swarmd). Non-blocking fds register a Handler for
// edge-triggered readiness callbacks; protocol timeouts go through a
// deadline-ordered timer map, and epoll_wait sleeps until the earliest
// deadline; post() defers work to the next loop turn (used to destroy
// connection objects outside their own callbacks).
//
// Unlike the simulation tree, this code deliberately reads the monotonic
// clock — it serves real sockets. now() is relative to reactor
// construction so timestamps in exported traces start near zero, and it is
// the only wall-clock surface of src/rt (scripts/lint_determinism.py
// whitelists the directory for exactly this).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tc::rt {

class Reactor {
 public:
  // Readiness callbacks for one registered fd. Edge-triggered: a handler
  // must drain reads and flush writes until EAGAIN, or it will not be
  // woken again. A read shorter than the buffer it asked to fill counts as
  // drained, unless `hangup` is set: the event carried EPOLLRDHUP or
  // EPOLLHUP, and only reading on to EOF sees the close it announced.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void on_readable(bool hangup) = 0;
    virtual void on_writable() {}
    // EPOLLERR; read/write paths surface most failures themselves.
    virtual void on_error() { on_readable(true); }
  };

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers `fd` edge-triggered for read+write readiness. The handler
  // must stay valid until remove(fd). Initial readiness is reported.
  void add(int fd, Handler* h);
  // Safe to call from inside a callback (pending events for the fd in the
  // current batch are skipped).
  void remove(int fd);

  using TimerId = std::uint64_t;
  // One-shot timer; returns an id for cancel(). Fires on the first loop
  // turn at or past its deadline; timers due together fire in schedule
  // order.
  TimerId schedule(double delay_seconds, std::function<void()> fn);
  // No-op for a timer that already fired or was cancelled.
  void cancel(TimerId id);

  // Runs `fn` at the start of the next loop turn (before fd dispatch).
  void post(std::function<void()> fn);

  // Monotonic seconds since reactor construction. The timestamp source for
  // every live trace event.
  double now() const;

  // Dispatches until stop(). Re-entrant calls are not supported.
  void run();
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Since construction: loop turns (epoll_wait calls), fd events
  // dispatched, and the longest turn in seconds. A turn runs from
  // epoll_wait's return through its fd callbacks, the posted work and
  // the due timers, to the next epoll_wait.
  std::uint64_t turns() const { return turns_; }
  std::uint64_t events() const { return events_; }
  double turn_max_seconds() const { return turn_max_; }

 private:
  // Deadline first; the id breaks ties in schedule order.
  using TimerKey = std::pair<double, TimerId>;

  void fire_due_timers();
  // Milliseconds epoll_wait may sleep, given the time `t` it is called at.
  int poll_timeout_ms(double t) const;

  int epfd_ = -1;
  bool stopped_ = false;
  std::unordered_map<int, Handler*> handlers_;
  std::vector<std::function<void()>> posted_;
  std::map<TimerKey, std::function<void()>> timers_;
  std::unordered_map<TimerId, double> deadlines_;  // pending timers only
  TimerId next_timer_ = 1;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t turns_ = 0;
  std::uint64_t events_ = 0;
  double turn_max_ = 0.0;
};

// Retries work that a full fd table (EMFILE/ENFILE) stopped: a listener's
// accept loop, a skipped dial. arm() schedules one call of `fn` after the
// current delay and doubles the delay for the next consecutive retry, from
// kFirstDelay up to kMaxDelay; reset() returns it to kFirstDelay once the
// work succeeds again. At most one retry is pending; arm() while one is
// pending is a no-op, and the destructor cancels it.
class RetryTimer {
 public:
  static constexpr double kFirstDelay = 0.005;
  static constexpr double kMaxDelay = 0.32;

  RetryTimer(Reactor& reactor, std::function<void()> fn)
      : reactor_(reactor), fn_(std::move(fn)) {}
  ~RetryTimer() { reactor_.cancel(timer_); }

  RetryTimer(const RetryTimer&) = delete;
  RetryTimer& operator=(const RetryTimer&) = delete;

  void arm();
  void reset() { delay_ = kFirstDelay; }

 private:
  Reactor& reactor_;
  std::function<void()> fn_;
  Reactor::TimerId timer_ = 0;  // 0: no retry pending
  double delay_ = kFirstDelay;
};

}  // namespace tc::rt
