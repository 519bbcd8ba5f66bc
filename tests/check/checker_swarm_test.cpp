// End-to-end checker runs against real swarms: representative T-Chain
// scenarios (fig7-style free-riders, collusion, faults + churn) must come
// back PASS with zero violations, the exp runner must snapshot the verdict
// into the record extras, and a deliberately lossy ring must downgrade the
// offline verdict to UNSOUND instead of inventing violations.
#include <gtest/gtest.h>

#include "src/bt/swarm.h"
#include "src/check/invariants.h"
#include "src/exp/runner.h"
#include "src/protocols/registry.h"

namespace tc::check {
namespace {

bt::SwarmConfig fig7_style_config() {
  bt::SwarmConfig cfg;
  cfg.leecher_count = 50;
  cfg.freerider_fraction = 0.2;
  cfg.file_bytes = util::ByteCount{2} * util::kMiB;
  cfg.max_sim_time = 50'000.0;
  return cfg;
}

// Runs `spec` through the exp runner with checking on and returns the
// record (asserting the run itself succeeded).
exp::RunRecord run_checked(exp::RunSpec spec) {
  spec.check = true;
  exp::RunRecord rec = exp::run_one(spec);
  EXPECT_TRUE(rec.ok) << rec.error;
  return rec;
}

void expect_clean(const exp::RunRecord& rec) {
  EXPECT_EQ(rec.extra_value("check.sound", 0.0), 1.0);
  EXPECT_EQ(rec.extra_value("check.violations", -1.0), 0.0);
  EXPECT_EQ(rec.extra_value("check.possible", -1.0), 0.0);
  EXPECT_GT(rec.extra_value("check.events", 0.0), 0.0);
}

TEST(CheckerSwarm, Fig7StyleFreeriderSwarmIsClean) {
  exp::RunSpec spec;
  spec.protocol = "tchain";
  spec.config = fig7_style_config();
  expect_clean(run_checked(spec));
}

TEST(CheckerSwarm, CollusionAttackRunIsClean) {
  exp::RunSpec spec;
  spec.protocol = "tchain";
  spec.config = fig7_style_config();
  spec.config.leecher_count = 30;
  spec.config.freerider_collude = true;
  expect_clean(run_checked(spec));
}

TEST(CheckerSwarm, FaultsAndChurnRunIsClean) {
  exp::RunSpec spec;
  spec.protocol = "tchain";
  spec.config = fig7_style_config();
  spec.config.leecher_count = 30;
  spec.config.faults.control_loss = 0.05;
  spec.config.faults.session_kind = sim::FaultPlan::SessionKind::kLogNormal;
  spec.config.faults.mean_session = 2'000.0;
  spec.config.faults.crash_fraction = 0.5;
  spec.config.tx_timeout = 60.0;
  expect_clean(run_checked(spec));
}

TEST(CheckerSwarm, BaselineProtocolIsVacuouslyClean) {
  exp::RunSpec spec;
  spec.protocol = "bittorrent";
  spec.config = fig7_style_config();
  spec.config.leecher_count = 12;
  expect_clean(run_checked(spec));
}

TEST(CheckerSwarm, CheckOffLeavesRecordExtrasUntouched) {
  exp::RunSpec spec;
  spec.protocol = "tchain";
  spec.config = fig7_style_config();
  spec.config.leecher_count = 10;
  const exp::RunRecord rec = exp::run_one(spec);
  ASSERT_TRUE(rec.ok) << rec.error;
  for (const auto& [key, value] : rec.extra) {
    (void)value;
    EXPECT_EQ(key.rfind("check.", 0), std::string::npos) << key;
  }
}

TEST(CheckerSwarm, ApplyCheckFlagSetsEverySpec) {
  std::vector<exp::RunSpec> specs(3);
  {
    const char* argv[] = {"prog", "--check"};
    const util::Flags flags(2, const_cast<char**>(argv));
    exp::apply_check_flag(specs, flags);
    for (const auto& s : specs) EXPECT_TRUE(s.check);
  }
  std::vector<exp::RunSpec> untouched(2);
  {
    const char* argv[] = {"prog"};
    const util::Flags flags(1, const_cast<char**>(argv));
    exp::apply_check_flag(untouched, flags);
    for (const auto& s : untouched) EXPECT_FALSE(s.check);
  }
}

TEST(CheckerSwarm, TotalCheckViolationsSumsRecords) {
  std::vector<exp::RunRecord> records(3);
  records[0].add_extra("check.sound", 1);
  records[0].add_extra("check.violations", 2);
  records[1].add_extra("check.sound", 0);
  records[1].add_extra("check.possible", 1);
  // records[2]: no check extras at all — counts zero.
  std::size_t unsound = 0;
  EXPECT_EQ(exp::total_check_violations(records, &unsound), 3u);
  EXPECT_EQ(unsound, 1u);
}

TEST(CheckerSwarm, LossyRingReplayIsUnsoundNotFalsePositive) {
  auto proto = protocols::make_protocol("tchain");
  bt::SwarmConfig cfg = fig7_style_config();
  cfg.leecher_count = 20;
  bt::Swarm swarm(cfg, *proto, {});
  obs::TraceConfig trace;
  trace.enabled = true;
  trace.ring_capacity = 64;  // far smaller than the run's event count
  swarm.enable_obs(trace);
  swarm.run();

  const obs::Trace* tr = swarm.obs();
  ASSERT_NE(tr, nullptr);
  ASSERT_GT(tr->ring().dropped(), 0u);
  const CheckReport r = check_events(tr->events(), tr->ring().dropped());
  EXPECT_FALSE(r.sound);
  EXPECT_STREQ(r.verdict(), "UNSOUND");
  // The whole point of the soundness contract: a truncated window must
  // never be reported as hard violations.
  EXPECT_EQ(r.total_violations, 0u);
}

TEST(CheckerSwarm, OnlineSinkMatchesOfflineReplayOnLosslessRing) {
  auto proto = protocols::make_protocol("tchain");
  bt::SwarmConfig cfg = fig7_style_config();
  cfg.leecher_count = 15;

  Checker online;
  {
    bt::Swarm swarm(cfg, *proto, {});
    obs::TraceConfig trace;
    trace.enabled = true;
    trace.ring_capacity = std::size_t{1} << 22;
    swarm.enable_obs(trace);
    swarm.obs()->set_sink(&online);
    swarm.run();
    const obs::Trace* tr = swarm.obs();
    ASSERT_EQ(tr->ring().dropped(), 0u);
    const CheckReport offline = check_events(tr->events());
    const CheckReport& live = online.finish();
    EXPECT_EQ(live.events, offline.events);
    EXPECT_EQ(live.total_violations, offline.total_violations);
    EXPECT_EQ(live.warnings, offline.warnings);
    EXPECT_STREQ(live.verdict(), offline.verdict());
    EXPECT_TRUE(live.clean());
  }
}

}  // namespace
}  // namespace tc::check
