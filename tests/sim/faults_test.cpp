#include "src/sim/faults.h"

#include <gtest/gtest.h>

#include <vector>

namespace tc::sim {
namespace {

TEST(FaultPlan, DefaultIsEverythingOff) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.control_faults());
  EXPECT_FALSE(plan.churn());
  EXPECT_FALSE(plan.outages());
}

TEST(FaultPlan, EachKnobEnables) {
  {
    FaultPlan p;
    p.control_loss = 0.1;
    EXPECT_TRUE(p.control_faults());
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.control_jitter = 0.5;
    EXPECT_TRUE(p.control_faults());
  }
  {
    FaultPlan p;
    p.session_kind = FaultPlan::SessionKind::kLogNormal;
    EXPECT_FALSE(p.churn()) << "mean_session still 0";
    p.mean_session = 60.0;
    EXPECT_TRUE(p.churn());
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.outage_rate = 0.01;
    EXPECT_TRUE(p.outages());
    EXPECT_TRUE(p.enabled());
  }
}

TEST(FaultInjector, DisabledKnobsNeverDraw) {
  // With loss/jitter off the injector must not consume randomness, so a
  // fault-free run's fault stream is never even touched.
  FaultInjector inj(FaultPlan{}, 42);
  const std::uint64_t probe_before = FaultInjector(FaultPlan{}, 42).rng().next_u64();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.drop_control());
    EXPECT_EQ(inj.control_delay(), 0.0);
  }
  EXPECT_EQ(inj.rng().next_u64(), probe_before)
      << "drop_control/control_delay consumed RNG draws while disabled";
}

TEST(FaultInjector, SameSeedSamePlanSameDecisions) {
  FaultPlan plan;
  plan.control_loss = 0.3;
  plan.control_jitter = 0.25;
  plan.outage_rate = 0.05;
  plan.crash_fraction = 0.4;

  FaultInjector a(plan, 7), b(plan, 7);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.drop_control(), b.drop_control());
    EXPECT_EQ(a.control_delay(), b.control_delay());
    EXPECT_EQ(a.outage_gap(), b.outage_gap());
    EXPECT_EQ(a.outage_duration(), b.outage_duration());
    EXPECT_EQ(a.crash_on_exit(), b.crash_on_exit());
  }
}

TEST(FaultInjector, StreamIndependentOfSwarmRng) {
  // The injector derives from the swarm seed but must not replay the
  // swarm's own Rng(seed) stream, or faults would correlate with piece
  // selection.
  FaultPlan plan;
  plan.control_loss = 0.5;
  FaultInjector inj(plan, 123);
  util::Rng swarm_rng(123);
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    diverged = inj.rng().next_u64() != swarm_rng.next_u64();
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, LossRateRoughlyHonored) {
  FaultPlan plan;
  plan.control_loss = 0.1;
  FaultInjector inj(plan, 99);
  int dropped = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) dropped += inj.drop_control() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.1, 0.01);
}

TEST(FaultInjector, OutageDurationsHaveRequestedMean) {
  FaultPlan plan;
  plan.outage_rate = 1.0;
  plan.outage_mean_duration = 8.0;
  FaultInjector inj(plan, 5);
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += inj.outage_duration();
  EXPECT_NEAR(sum / n, 8.0, 0.3);
}

}  // namespace
}  // namespace tc::sim
