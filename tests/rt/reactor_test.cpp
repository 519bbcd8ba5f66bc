// Reactor unit coverage against real fds and the monotonic clock. Timing
// assertions use generous tolerances: CI machines stall, and the reactor
// only guarantees "not before the deadline, soon after".
#include "src/rt/reactor.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

namespace tc::rt {
namespace {

TEST(Reactor, PostRunsBeforeTimersAndInOrder) {
  Reactor r;
  std::vector<int> order;
  r.post([&] { order.push_back(1); });
  r.post([&] { order.push_back(2); });
  r.schedule(0.0, [&] {
    order.push_back(3);
    r.stop();
  });
  r.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, TimerFiresAfterDelay) {
  Reactor r;
  double fired_at = -1.0;
  r.schedule(0.05, [&] {
    fired_at = r.now();
    r.stop();
  });
  r.run();
  EXPECT_GE(fired_at, 0.05);
  EXPECT_LT(fired_at, 1.0);  // loose upper bound against CI stalls
}

TEST(Reactor, CancelledTimerNeverFires) {
  Reactor r;
  bool fired = false;
  const Reactor::TimerId id = r.schedule(0.01, [&] { fired = true; });
  r.cancel(id);
  r.schedule(0.05, [&] { r.stop(); });
  r.run();
  EXPECT_FALSE(fired);
}

TEST(Reactor, TimersFireInDeadlineOrder) {
  Reactor r;
  std::vector<int> order;
  r.schedule(0.06, [&] {
    order.push_back(3);
    r.stop();
  });
  r.schedule(0.02, [&] { order.push_back(1); });
  r.schedule(0.04, [&] { order.push_back(2); });
  r.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, ReschedulingFromCallbackWorks) {
  Reactor r;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks >= 3) {
      r.stop();
      return;
    }
    r.schedule(0.005, tick);
  };
  r.schedule(0.005, tick);
  r.run();
  EXPECT_EQ(ticks, 3);
}

// A timer re-armed from its own callback fires within its delay, every
// time: no firing of a periodic timer may come late by more than the bound.
TEST(Reactor, RearmedTimerFiresWithinItsDelay) {
  Reactor r;
  int fired = 0;
  double worst_late = 0.0;
  double due = 0.005;
  std::function<void()> tick = [&] {
    worst_late = std::max(worst_late, r.now() - due);
    if (++fired >= 40) {
      r.stop();
      return;
    }
    due = r.now() + 0.005;
    r.schedule(0.005, tick);
  };
  r.schedule(0.005, tick);
  r.run();
  EXPECT_EQ(fired, 40);
  EXPECT_LT(worst_late, 0.5);  // 100x the delay
}

class PipeEcho : public Reactor::Handler {
 public:
  explicit PipeEcho(Reactor& r, int fd) : reactor_(r), fd_(fd) {}
  void on_readable(bool) override {
    char buf[64];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof(buf))) > 0) {
      got.append(buf, static_cast<std::size_t>(n));
    }
    if (!got.empty()) reactor_.stop();
  }
  std::string got;

 private:
  Reactor& reactor_;
  int fd_;
};

TEST(Reactor, FdReadinessDispatchesToHandler) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  Reactor r;
  PipeEcho echo(r, fds[0]);
  r.add(fds[0], &echo);
  ASSERT_EQ(::write(fds[1], "hi", 2), 2);
  r.schedule(2.0, [&] { r.stop(); });  // failsafe
  r.run();
  EXPECT_EQ(echo.got, "hi");
  r.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, RemoveInsideCallbackIsSafe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  Reactor r;

  class SelfRemover : public Reactor::Handler {
   public:
    SelfRemover(Reactor& r, int fd) : reactor_(r), fd_(fd) {}
    void on_readable(bool) override {
      char buf[16];
      while (::read(fd_, buf, sizeof(buf)) > 0) {
      }
      reactor_.remove(fd_);
      removed = true;
      reactor_.stop();
    }
    bool removed = false;

   private:
    Reactor& reactor_;
    int fd_;
  };

  SelfRemover h(r, fds[0]);
  r.add(fds[0], &h);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  r.schedule(2.0, [&] { r.stop(); });
  r.run();
  EXPECT_TRUE(h.removed);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, NowIsMonotoneAndStartsNearZero) {
  Reactor r;
  const double t0 = r.now();
  EXPECT_GE(t0, 0.0);
  EXPECT_LT(t0, 1.0);
  EXPECT_GE(r.now(), t0);
}

}  // namespace
}  // namespace tc::rt
