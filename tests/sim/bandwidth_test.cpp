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
  EXPECT_NEAR(bw.bytes_uploaded(1), 500.0, 1e-6);
  EXPECT_NEAR(bw.bytes_downloaded(2), 500.0, 1e-6);
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
  const FlowId f = bw.start_flow(1, 2, 1000.0, [&](FlowId) { fired = true; });
  sim.schedule_at(2.0, [&] { EXPECT_TRUE(bw.cancel_flow(1, f)); });
  sim.run();
  EXPECT_FALSE(fired);
  // Partial progress still counted.
  EXPECT_NEAR(bw.bytes_uploaded(1), 200.0, 1e-6);
  EXPECT_FALSE(bw.cancel_flow(1, f));  // already gone
}

TEST_F(BandwidthTest, ZeroCapacityNeverCompletes) {
  bw.set_capacity(1, 0.0);
  bool fired = false;
  bw.start_flow(1, 2, 10.0, [&](FlowId) { fired = true; });
  sim.run(1000.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(bw.active_flow_count(1), 1u);
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
  bw.set_capacity(1, 77.0);
  bw.set_capacity(2, 133.0);
  double delivered = 0;
  for (int i = 0; i < 20; ++i) {
    bw.start_flow(1 + static_cast<NodeId>(i % 2), 10 + static_cast<NodeId>(i), 50.0 + i,
                  [&, i](FlowId) { delivered += 50.0 + i; });
  }
  sim.run();
  double uploaded = bw.bytes_uploaded(1) + bw.bytes_uploaded(2);
  EXPECT_NEAR(uploaded, delivered, 1e-6);
}

TEST_F(BandwidthTest, InvalidArgumentsThrow) {
  bw.set_capacity(1, 100.0);
  EXPECT_THROW(bw.start_flow(1, 2, -1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(bw.start_flow(1, 2, 10.0, nullptr, 0.0), std::invalid_argument);
  EXPECT_THROW(bw.set_capacity(1, -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace tc::sim
