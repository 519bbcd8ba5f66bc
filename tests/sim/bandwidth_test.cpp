#include "src/sim/bandwidth.h"

#include <gtest/gtest.h>

#include <vector>

namespace tc::sim {
namespace {

class BandwidthTest : public ::testing::Test {
 protected:
  Simulator sim;
  BandwidthModel bw{sim};
};

TEST_F(BandwidthTest, SingleFlowExactTiming) {
  bw.set_capacity(1, 100.0);  // bytes/s
  double done_at = -1;
  bw.start_flow(1, 2, 500.0, [&](FlowId) { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
}

TEST_F(BandwidthTest, EqualSharingTwoFlows) {
  bw.set_capacity(1, 100.0);
  std::vector<double> done;
  bw.start_flow(1, 2, 100.0, [&](FlowId) { done.push_back(sim.now()); });
  bw.start_flow(1, 3, 300.0, [&](FlowId) { done.push_back(sim.now()); });
  sim.run();
  // Shared 50/50 until t=2 (first completes), then full rate: 200 bytes
  // remain on flow 2 at t=2, finishing at 2 + 200/100 = 4.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST_F(BandwidthTest, WeightedSharing) {
  bw.set_capacity(1, 100.0);
  double t_heavy = -1, t_light = -1;
  bw.start_flow(1, 2, 300.0, [&](FlowId) { t_heavy = sim.now(); }, 3.0);
  bw.start_flow(1, 3, 300.0, [&](FlowId) { t_light = sim.now(); }, 1.0);
  sim.run();
  // Heavy gets 75 B/s -> completes at 4; light then has 300-100=200 left
  // at full rate -> 4 + 2 = 6.
  EXPECT_NEAR(t_heavy, 4.0, 1e-9);
  EXPECT_NEAR(t_light, 6.0, 1e-9);
}

TEST_F(BandwidthTest, JoiningFlowSlowsExisting) {
  bw.set_capacity(1, 100.0);
  double done = -1;
  bw.start_flow(1, 2, 200.0, [&](FlowId) { done = sim.now(); });
  sim.schedule_at(1.0, [&] {
    bw.start_flow(1, 3, 1000.0, nullptr);
  });
  sim.run(4.0);
  // 100 bytes by t=1; then 50 B/s -> 100 more takes 2s -> done at 3.
  EXPECT_NEAR(done, 3.0, 1e-9);
}

TEST_F(BandwidthTest, CancelFlowStopsDelivery) {
  bw.set_capacity(1, 100.0);
  bool fired = false;
  double sibling_done = -1;
  const FlowId f = bw.start_flow(1, 2, 1000.0, [&](FlowId) { fired = true; });
  bw.start_flow(1, 3, 1000.0, [&](FlowId) { sibling_done = sim.now(); });
  sim.schedule_at(2.0, [&] { EXPECT_TRUE(bw.cancel_flow(1, f)); });
  sim.run();
  EXPECT_FALSE(fired);
  // Shared 50/50 until the cancel at t=2, then the sibling's 900 bytes go
  // at full rate: 2 + 9 = 11 (20 had the cancelled flow stayed).
  EXPECT_NEAR(sibling_done, 11.0, 1e-9);
  EXPECT_FALSE(bw.cancel_flow(1, f));  // already gone
}

TEST_F(BandwidthTest, ZeroCapacityNeverCompletes) {
  bw.set_capacity(1, 0.0);
  double done = -1;
  bw.start_flow(1, 2, 10.0, [&](FlowId) { done = sim.now(); });
  sim.run(1000.0);
  EXPECT_LT(done, 0.0);
  // The flow is still there with all 10 bytes to go.
  sim.schedule_at(1000.0, [&] { bw.set_capacity(1, 5.0); });
  sim.run();
  EXPECT_NEAR(done, 1002.0, 1e-9);
}

TEST_F(BandwidthTest, CapacityChangeRetimesFlows) {
  bw.set_capacity(1, 100.0);
  double done = -1;
  bw.start_flow(1, 2, 400.0, [&](FlowId) { done = sim.now(); });
  sim.schedule_at(2.0, [&] { bw.set_capacity(1, 50.0); });
  sim.run();
  // 200 bytes by t=2, then 200 at 50 B/s -> 2 + 4 = 6.
  EXPECT_NEAR(done, 6.0, 1e-9);
}

TEST_F(BandwidthTest, ZeroByteFlowCompletesImmediately) {
  bw.set_capacity(1, 100.0);
  bool fired = false;
  bw.start_flow(1, 2, 0.0, [&](FlowId) { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST_F(BandwidthTest, CompletionCallbackCanStartNextFlow) {
  bw.set_capacity(1, 100.0);
  std::vector<double> times;
  std::function<void(FlowId)> chain = [&](FlowId) {
    times.push_back(sim.now());
    if (times.size() < 3) bw.start_flow(1, 2, 100.0, chain);
  };
  bw.start_flow(1, 2, 100.0, chain);
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_NEAR(times[0], 1.0, 1e-9);
  EXPECT_NEAR(times[1], 2.0, 1e-9);
  EXPECT_NEAR(times[2], 3.0, 1e-9);
}

TEST_F(BandwidthTest, ConservationOfBytes) {
  // An uploader with flows always sends at full capacity, so with every
  // flow started at t=0 its last completion falls at bytes / capacity.
  const double cap[] = {77.0, 133.0};
  bw.set_capacity(1, cap[0]);
  bw.set_capacity(2, cap[1]);
  double bytes[2] = {0, 0};
  double last[2] = {-1, -1};
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    const int u = i % 2;
    bytes[u] += 50.0 + i;
    bw.start_flow(1 + static_cast<NodeId>(u), 10 + static_cast<NodeId>(i),
                  50.0 + i, [&, u](FlowId) {
                    ++completions;
                    last[u] = sim.now();
                  });
  }
  sim.run();
  EXPECT_EQ(completions, 20);
  EXPECT_NEAR(last[0], bytes[0] / cap[0], 1e-9);
  EXPECT_NEAR(last[1], bytes[1] / cap[1], 1e-9);
}

// Records every callback a flow gets: (id, ok, time).
struct Report {
  FlowId id;
  bool ok;
  double t;
};

TEST_F(BandwidthTest, AbortFlowsEndsInboundAndOutboundInFlowIdOrder) {
  for (NodeId n = 1; n <= 3; ++n) bw.set_capacity(n, 100.0);
  std::vector<Report> reports;
  const auto record = [&](FlowId id, bool ok) {
    reports.push_back({id, ok, sim.now()});
  };
  // Node 1's flows, inbound and outbound interleaved by id.
  const FlowId out_a = bw.start_flow(1, 2, 1000.0, record);
  const FlowId in_b = bw.start_flow(3, 1, 1000.0, record);
  const FlowId out_c = bw.start_flow(1, 4, 1000.0, record);
  const FlowId in_d = bw.start_flow(2, 1, 300.0, record);
  const FlowId out_e = bw.start_flow(1, 5, 300.0, record);
  // Siblings that share an uploader with node 1's flows.
  const FlowId at_3 = bw.start_flow(3, 4, 1000.0, record);
  const FlowId at_2 = bw.start_flow(2, 4, 300.0, record);
  sim.schedule_at(2.0, [&] { bw.abort_flows(1); });
  sim.run();

  // Every flow of node 1 is aborted at t=2, once, in ascending id, and
  // none of them completes later.
  ASSERT_EQ(reports.size(), 7u);
  const FlowId aborted[] = {out_a, in_b, out_c, in_d, out_e};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(reports[i].id, aborted[i]) << i;
    EXPECT_FALSE(reports[i].ok) << i;
    EXPECT_DOUBLE_EQ(reports[i].t, 2.0) << i;
  }
  // Uploader 2 shared 100 B/s between in_d and at_2 until t=2, so at_2 has
  // 200 bytes left, sent at full rate: done at 4 (6 without the abort).
  // Uploader 3's at_3 has 900 left: done at 11 (20 without the abort).
  EXPECT_EQ(reports[5].id, at_2);
  EXPECT_TRUE(reports[5].ok);
  EXPECT_NEAR(reports[5].t, 4.0, 1e-9);
  EXPECT_EQ(reports[6].id, at_3);
  EXPECT_TRUE(reports[6].ok);
  EXPECT_NEAR(reports[6].t, 11.0, 1e-9);
  EXPECT_FALSE(bw.cancel_flow(1, out_a));  // gone from the model
}

TEST_F(BandwidthTest, AbortAtTheDueInstantReportsAbort) {
  bw.set_capacity(1, 100.0);
  std::vector<Report> reports;
  // Scheduled before the flow's completion event, so it runs first at t=1.
  sim.schedule_at(1.0, [&] { bw.abort_flows(2); });
  bw.start_flow(1, 2, 100.0, [&](FlowId id, bool ok) {
    reports.push_back({id, ok, sim.now()});
  });
  sim.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_DOUBLE_EQ(reports[0].t, 1.0);
}

TEST_F(BandwidthTest, AbortLeavesFlowsItsCallbacksStart) {
  bw.set_capacity(1, 100.0);
  std::vector<Report> reports;
  const auto record = [&](FlowId id, bool ok) {
    reports.push_back({id, ok, sim.now()});
  };
  bw.start_flow(1, 2, 1000.0, [&](FlowId id, bool ok) {
    record(id, ok);
    if (!ok) bw.start_flow(1, 3, 100.0, record);  // a retry elsewhere
  });
  sim.schedule_at(1.0, [&] { bw.abort_flows(1); });
  sim.run();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].ok);
  EXPECT_TRUE(reports[1].ok);
  EXPECT_NEAR(reports[1].t, 2.0, 1e-9);
  bw.abort_flows(99);  // a node the model never saw: nothing happens
  EXPECT_EQ(reports.size(), 2u);
}

TEST_F(BandwidthTest, CompletionOnlyCallbackIgnoresAbort) {
  bw.set_capacity(1, 100.0);
  int fired = 0;
  bw.start_flow(1, 2, 1000.0, [&](FlowId) { ++fired; });
  sim.schedule_at(1.0, [&] { bw.abort_flows(2); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(BandwidthTest, InvalidArgumentsThrow) {
  bw.set_capacity(1, 100.0);
  EXPECT_THROW(bw.start_flow(1, 2, -1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(bw.start_flow(1, 2, 10.0, nullptr, 0.0), std::invalid_argument);
  EXPECT_THROW(bw.set_capacity(1, -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace tc::sim
