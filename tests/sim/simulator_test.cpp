#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelFromWithinEvent) {
  Simulator sim;
  bool fired = false;
  const auto victim = sim.schedule_at(2.0, [&] { fired = true; });
  sim.schedule_at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
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

TEST(Simulator, PendingCountTracksCancellations) {
  Simulator sim;
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EqualTimestampsStayFifoAcrossCancelsAndSlotReuse) {
  Simulator sim;
  std::vector<int> order;
  // Fire and cancel a first batch so the second batch reuses freed slots
  // in a different order than it schedules.
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(sim.schedule_at(1.0, [&order, i] { order.push_back(i); }));
  for (int i = 1; i < 8; i += 2) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  sim.run(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6}));

  order.clear();
  ids.clear();
  for (int i = 10; i < 20; ++i)
    ids.push_back(sim.schedule_at(2.0, [&order, i] { order.push_back(i); }));
  EXPECT_TRUE(sim.cancel(ids[3]));  // 13
  // An event that schedules more at its own timestamp: they queue behind
  // everything already scheduled for 2.0.
  sim.schedule_at(2.0, [&] {
    order.push_back(20);
    sim.schedule_in(0.0, [&order] { order.push_back(22); });
  });
  sim.schedule_at(2.0, [&order] { order.push_back(21); });
  EXPECT_TRUE(sim.cancel(ids[9]));  // 19
  sim.run();
  EXPECT_EQ(order,
            (std::vector<int>{10, 11, 12, 14, 15, 16, 17, 18, 20, 21, 22}));
}

TEST(Simulator, CancelledCallbackCapturesReleasedByTombstonePop) {
  Simulator sim;
  auto held = std::make_shared<int>(7);
  const auto victim = sim.schedule_at(1.0, [held] { ++*held; });
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_TRUE(sim.cancel(victim));
  EXPECT_TRUE(sim.step());  // pops the tombstone at 1.0, fires 2.0
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*held, 7);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, FiredCallbackCapturesReleasedAfterFiring) {
  Simulator sim;
  auto held = std::make_shared<int>(0);
  sim.schedule_at(1.0, [held] { ++*held; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*held, 1);
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
