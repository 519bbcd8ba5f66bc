#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace tc::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

// A timer's cancel is its disarm.
TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const auto timer = sim.add_timer([&] { ++fired; });
  EXPECT_FALSE(sim.armed(timer));
  sim.arm(timer, 1.0);
  EXPECT_TRUE(sim.armed(timer));
  sim.disarm(timer);
  sim.disarm(timer);  // second disarm is a no-op
  EXPECT_FALSE(sim.armed(timer));
  EXPECT_EQ(sim.cancelled_total(), 1u);
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelFromWithinEvent) {
  Simulator sim;
  int fired = 0;
  const auto victim = sim.add_timer([&] { ++fired; });
  sim.arm(victim, 2.0);
  sim.schedule_at(1.0, [&] { sim.disarm(victim); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, TimerFiresOnceAtItsLatestArmingAndDisarmsAsItFires) {
  Simulator sim;
  std::vector<double> fired;
  Simulator::Timer timer{};
  timer = sim.add_timer([&] {
    fired.push_back(sim.now());
    EXPECT_FALSE(sim.armed(timer));
  });
  sim.arm(timer, 5.0);
  sim.arm(timer, 2.0);  // sooner
  sim.arm(timer, 3.0);  // later again
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{3.0}));
  EXPECT_EQ(sim.cancelled_total(), 2u);
  EXPECT_EQ(sim.events_processed(), 1u);
  sim.arm(timer, 4.0);  // a fired timer arms again
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{3.0, 4.0}));
}

TEST(Simulator, LaneFiresAfterItsDelay) {
  Simulator sim;
  const auto lane = sim.lane(0.5);
  std::vector<double> fired;
  sim.schedule_in(lane, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(lane, [&] { fired.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{0.5, 2.5}));
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(3.0, [&] { ++count; });
  sim.run(2.0);  // inclusive boundary
  EXPECT_EQ(count, 2);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  bool fired = false;
  sim.schedule_in(-3.0, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleRecursively) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 100) sim.schedule_in(1.0, recur);
  };
  sim.schedule_in(0.0, recur);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
  EXPECT_EQ(sim.events_processed(), 100u);
}

// Pending counts all three queues; a re-arm or disarm of an armed timer
// counts as a cancellation.
TEST(Simulator, PendingCountTracksCancellations) {
  Simulator sim;
  const auto timer = sim.add_timer([] {});
  const auto lane = sim.lane(1.0);
  sim.schedule_at(2.0, [] {});
  sim.schedule_in(lane, [] {});
  sim.arm(timer, 3.0);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.peak_pending(), 3u);
  sim.arm(timer, 4.0);  // re-keyed in place: still one event
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.disarm(timer);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.cancelled_total(), 2u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.peak_pending(), 3u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, EqualTimestampsStayFifoAcrossCancelsAndSlotReuse) {
  Simulator sim;
  std::vector<int> order;
  const auto lane = sim.lane(1.0);
  // Fire a first batch on the heap and the lane so the second batch
  // reuses freed slots in a different order than it schedules.
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
    sim.schedule_in(lane, [&order, i] { order.push_back(100 + i); });
  }
  sim.run(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 101, 2, 102, 3, 103, 4, 104,
                                     5, 105, 6, 106, 7, 107}));

  order.clear();
  const auto dropped = sim.add_timer([&order] { order.push_back(-1); });
  for (int i = 10; i < 20; ++i) {
    sim.schedule_at(2.0, [&order, i] { order.push_back(i); });
    if (i == 13) sim.arm(dropped, 2.0);
  }
  // An event that schedules more at its own timestamp: they queue behind
  // everything already scheduled for 2.0.
  sim.schedule_at(2.0, [&] {
    order.push_back(20);
    sim.schedule_in(0.0, [&order] { order.push_back(22); });
  });
  sim.schedule_in(lane, [&order] { order.push_back(21); });  // due at 2.0
  sim.disarm(dropped);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                                     20, 21, 22}));
}

TEST(Simulator, FiredCallbackCapturesReleasedAfterFiring) {
  Simulator sim;
  auto held = std::make_shared<int>(0);
  sim.schedule_at(1.0, [held] { ++*held; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*held, 1);
  sim.schedule_in(sim.lane(1.0), [held] { ++*held; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*held, 2);
}

TEST(Simulator, TimerCallbackStaysUntilTheSimulatorGoes) {
  auto held = std::make_shared<int>(0);
  {
    Simulator sim;
    const auto timer = sim.add_timer([held] { ++*held; });
    sim.arm(timer, 1.0);
    sim.disarm(timer);
    EXPECT_EQ(held.use_count(), 2);  // disarmed, not dropped
    sim.arm(timer, 2.0);
    sim.run();
    EXPECT_EQ(*held, 1);
    EXPECT_EQ(held.use_count(), 2);
  }
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Simulator, EqualTimestampsStayFifoAcrossHeapLaneAndTimer) {
  Simulator sim;
  std::vector<int> order;
  const auto lane = sim.lane(1.0);
  const auto a = sim.add_timer([&order] { order.push_back(2); });
  const auto b = sim.add_timer([&order] { order.push_back(5); });
  sim.schedule_in(lane, [&order] { order.push_back(0); });
  sim.schedule_at(1.0, [&order] { order.push_back(1); });
  sim.arm(a, 1.0);
  sim.arm(b, 1.0);
  sim.schedule_in(lane, [&order] { order.push_back(3); });
  sim.schedule_at(1.0, [&order] { order.push_back(4); });
  sim.arm(b, 1.0);  // re-armed: now behind 3 and 4
  sim.schedule_in(lane, [&order] { order.push_back(6); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, FiringTimerAddsTimersAndRearmsItself) {
  struct State {
    Simulator sim;
    std::vector<std::pair<double, int>> fired;
    std::vector<Simulator::Timer> added;
    Simulator::Timer self{};
  } st;
  // A capture small enough that std::function keeps it inline: if timer
  // callbacks sat in a vector that grew while this one ran, the reads of
  // `st` and `tag` after the add_timer calls would be from freed memory
  // (the sanitize build reports it).
  st.self = st.sim.add_timer([&st, tag = 7] {
    for (int i = 0; i < 40; ++i) {
      const int added = static_cast<int>(st.added.size());
      st.added.push_back(st.sim.add_timer(
          [&st, added] { st.fired.emplace_back(st.sim.now(), added); }));
    }
    st.fired.emplace_back(st.sim.now(), tag);
    st.sim.arm(st.added.back(), st.sim.now() + 0.5);
    if (st.sim.now() < 3.0) st.sim.arm(st.self, st.sim.now() + 1.0);
  });
  st.sim.arm(st.self, 1.0);
  st.sim.run();
  EXPECT_EQ(st.fired, (std::vector<std::pair<double, int>>{
                          {1.0, 7}, {1.5, 39}, {2.0, 7}, {2.5, 79},
                          {3.0, 7}, {3.5, 119}}));
  EXPECT_EQ(st.added.size(), 120u);
}

TEST(Simulator, CallbackDisarmsATimerDueAtTheSameInstant) {
  Simulator sim;
  std::vector<int> order;
  const auto victim = sim.add_timer([&order] { order.push_back(-1); });
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.armed(victim));
    sim.disarm(victim);
  });
  sim.arm(victim, 1.0);
  sim.schedule_at(1.0, [&order] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.cancelled_total(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// A reference event queue: one list searched for its (time, id) minimum,
// where a timer's re-arm cancels its pending event and schedules a new one
// and a lane is plain schedule_at(now + delay).
class RefQueue {
 public:
  using Fn = std::function<void()>;
  struct Timer {
    std::size_t index;
  };
  struct Lane {
    double delay;
  };

  double now() const { return now_; }
  void schedule_at(double t, Fn fn) { push(t, std::move(fn), -1); }
  Lane lane(double delay) { return Lane{delay}; }
  void schedule_in(Lane lane, Fn fn) { push(now_ + lane.delay, std::move(fn), -1); }
  Timer add_timer(Fn fn) {
    timers_.push_back(std::move(fn));
    armed_.push_back(0);
    return Timer{timers_.size() - 1};
  }
  void arm(Timer timer, double t) {
    disarm(timer);
    armed_[timer.index] = push(t, nullptr, static_cast<int>(timer.index));
  }
  void disarm(Timer timer) {
    const std::uint64_t id = std::exchange(armed_[timer.index], 0);
    if (id == 0) return;
    ++cancelled_;
    std::erase_if(events_, [id](const Event& e) { return e.id == id; });
  }
  bool step() {
    if (events_.empty()) return false;
    auto first = events_.begin();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->t < first->t || (it->t == first->t && it->id < first->id)) first = it;
    }
    Event e = std::move(*first);
    events_.erase(first);
    now_ = e.t;
    ++processed_;
    if (e.timer >= 0) {
      armed_[static_cast<std::size_t>(e.timer)] = 0;
      Fn fn = timers_[static_cast<std::size_t>(e.timer)];
      fn();
    } else {
      e.fn();
    }
    return true;
  }
  std::size_t pending_events() const { return events_.size(); }
  std::uint64_t events_processed() const { return processed_; }
  std::uint64_t cancelled_total() const { return cancelled_; }

 private:
  struct Event {
    double t;
    std::uint64_t id;
    Fn fn;
    int timer;  // -1: a one-shot event
  };
  std::uint64_t push(double t, Fn fn, int timer) {
    events_.push_back(Event{std::max(t, now_), next_id_, std::move(fn), timer});
    return next_id_++;
  }

  double now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<Event> events_;
  std::vector<Fn> timers_;
  std::vector<std::uint64_t> armed_;  // id of the pending firing, or 0
};

// One firing as the program saw it: time, tag, pending and cancelled
// counts after the firing's own calls.
using Firing = std::tuple<double, int, std::size_t, std::uint64_t>;

// A seeded random program of schedule_at, lane schedules, arm, re-arm,
// disarm and add_timer calls, about half of them made from inside firing
// callbacks. Times are multiples of 0.25 so ties are common. Every draw
// comes from `rng` in firing order, so two queues that fire alike draw
// alike.
template <class Q>
std::vector<Firing> run_program(std::uint64_t seed) {
  Q q;
  util::Rng rng(seed);
  std::vector<Firing> log;
  std::vector<typename Q::Timer> timers;
  const std::vector<typename Q::Lane> lanes{q.lane(0.0), q.lane(0.5),
                                            q.lane(1.25)};
  int budget = 3000;
  int next_tag = 0;
  std::function<void()> act;
  const auto fire = [&](int tag) {
    const std::size_t calls = rng.index(4);
    for (std::size_t i = 0; i < calls; ++i) act();
    log.emplace_back(q.now(), tag, q.pending_events(), q.cancelled_total());
  };
  const auto later = [&] { return q.now() + 0.25 * static_cast<double>(rng.index(6)); };
  const auto add_timer = [&] {
    const int tag = -1 - static_cast<int>(timers.size());
    timers.push_back(q.add_timer([&fire, tag] { fire(tag); }));
  };
  act = [&] {
    if (--budget < 0) return;
    switch (rng.index(7)) {
      case 0:
      case 1: {
        const int tag = next_tag++;
        q.schedule_at(later(), [&fire, tag] { fire(tag); });
        break;
      }
      case 2: {
        const int tag = next_tag++;
        q.schedule_in(lanes[rng.index(lanes.size())], [&fire, tag] { fire(tag); });
        break;
      }
      case 3:
      case 4:
        q.arm(timers[rng.index(timers.size())], later());
        break;
      case 5:
        q.disarm(timers[rng.index(timers.size())]);
        break;
      default:
        add_timer();
        break;
    }
  };
  for (int i = 0; i < 8; ++i) add_timer();
  for (int i = 0; i < 200; ++i) act();
  while (q.step()) {
  }
  log.emplace_back(q.now(), 0, q.pending_events(), q.events_processed());
  return log;
}

TEST(Simulator, RandomProgramsFireAsCancelAndScheduleWould) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto got = run_program<Simulator>(seed);
    const auto want = run_program<RefQueue>(seed);
    ASSERT_GT(want.size(), 1000u) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

TEST(Simulator, ManyEventsStress) {
  Simulator sim;
  std::uint64_t sum = 0;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at((i * 7919) % 1000, [&sum, i] { sum += static_cast<std::uint64_t>(i); });
  }
  sim.run();
  EXPECT_EQ(sum, 10000ull * 9999 / 2);
}

}  // namespace
}  // namespace tc::sim
