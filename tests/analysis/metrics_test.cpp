#include "src/analysis/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tc::analysis {
namespace {

using F = SwarmMetrics::PeerFilter;

TEST(SwarmMetrics, RecordLifecycle) {
  SwarmMetrics m;
  auto& r = m.record(1);
  r.join_time = 10;
  r.finish_time = 110;
  EXPECT_EQ(m.find(1), &m.record(1));
  EXPECT_EQ(m.find(2), nullptr);
  EXPECT_TRUE(r.finished());
  EXPECT_DOUBLE_EQ(r.completion_time(), 100.0);
}

TEST(SwarmMetrics, CompletionTimesFilter) {
  SwarmMetrics m;
  auto& seeder = m.record(1);
  seeder.seeder = true;
  seeder.finish_time = 1;  // seeders never counted
  auto& compliant = m.record(2);
  compliant.join_time = 0;
  compliant.finish_time = 50;
  auto& fr = m.record(3);
  fr.freerider = true;
  fr.join_time = 0;
  fr.finish_time = 500;
  auto& unfinished = m.record(4);
  unfinished.join_time = 0;

  EXPECT_EQ(m.completion_times(F::kCompliant).count(), 1u);
  EXPECT_DOUBLE_EQ(m.completion_times(F::kCompliant).mean(), 50.0);
  EXPECT_EQ(m.completion_times(F::kFreeRiders).count(), 1u);
  EXPECT_EQ(m.completion_times(F::kAll).count(), 2u);
  EXPECT_EQ(m.unfinished_count(F::kCompliant), 1u);
  EXPECT_EQ(m.unfinished_count(F::kAll), 1u);
}

TEST(SwarmMetrics, RekeyPreservesRecord) {
  SwarmMetrics m;
  auto& r = m.record(5);
  r.pieces_downloaded = 7;
  m.rekey(5, 99);
  EXPECT_EQ(m.find(5), nullptr);
  ASSERT_NE(m.find(99), nullptr);
  EXPECT_EQ(m.find(99)->pieces_downloaded, 7);
  EXPECT_EQ(m.find(99)->whitewash_count, 1);
  EXPECT_THROW(m.rekey(5, 100), std::invalid_argument);
}

TEST(SwarmMetrics, RekeyMovesTheDenseIndexEntry) {
  SwarmMetrics m;
  m.record(3).pieces_uploaded = 4;
  m.record(7).pieces_downloaded = 9;
  // To an id below the old one (no growth), then far past the end.
  m.rekey(7, 2);
  EXPECT_EQ(m.find(7), nullptr);
  ASSERT_NE(m.find(2), nullptr);
  EXPECT_EQ(m.find(2)->id, 2u);
  EXPECT_EQ(m.find(2)->whitewash_count, 1);
  m.rekey(2, 5000);
  EXPECT_EQ(m.find(2), nullptr);
  ASSERT_NE(m.find(5000), nullptr);
  EXPECT_EQ(m.find(5000)->pieces_downloaded, 9);
  EXPECT_EQ(m.find(5000)->whitewash_count, 2);
  EXPECT_EQ(m.find(4999), nullptr);
  EXPECT_EQ(m.find(5001), nullptr);
  // The retired id is free again: a record() there is a new peer.
  EXPECT_EQ(m.record(7).whitewash_count, 0);
  EXPECT_EQ(m.record(7).pieces_downloaded, 0);
  EXPECT_EQ(m.find(3)->pieces_uploaded, 4);
  EXPECT_EQ(m.all().size(), 3u);
}

TEST(SwarmMetrics, UplinkUtilization) {
  SwarmMetrics m;
  auto& r = m.record(1);
  r.upload_kbps = 800;  // = 100,000 bytes/s
  r.join_time = 0;
  r.finish_time = 100;
  r.bytes_uploaded = 0.8 * util::kbps_to_bytes_per_sec(800) * 100;
  EXPECT_NEAR(m.mean_uplink_utilization(F::kCompliant, 1000), 0.8, 1e-9);
}

TEST(SwarmMetrics, UtilizationUsesEndTimeForUnfinished) {
  SwarmMetrics m;
  auto& r = m.record(1);
  r.upload_kbps = 800;
  r.join_time = 0;
  r.bytes_uploaded = util::kbps_to_bytes_per_sec(800) * 50;  // full rate 50s
  EXPECT_NEAR(m.mean_uplink_utilization(F::kCompliant, 100), 0.5, 1e-9);
}

TEST(SwarmMetrics, FairnessFactors) {
  SwarmMetrics m;
  for (std::uint32_t i = 1; i <= 4; ++i) {
    auto& r = m.record(i);
    r.join_time = 0;
    r.finish_time = i;  // finish order = id
    r.pieces_downloaded = 10;
    r.pieces_uploaded = (i == 4) ? 0 : 10 * static_cast<std::int64_t>(i);
  }
  auto d = m.fairness_factors(0);
  ASSERT_EQ(d.count(), 4u);
  // Peer 4 uploaded nothing -> +inf factor.
  EXPECT_TRUE(std::isinf(d.percentile(1.0)));
  // last_n keeps latest finishers only.
  EXPECT_EQ(m.fairness_factors(2).count(), 2u);
}

TEST(SwarmMetrics, DownloadThroughput) {
  SwarmMetrics m;
  auto& r = m.record(1);
  r.join_time = 0;
  r.bytes_downloaded = 5000;
  r.finish_time = 50;
  // 5000 bytes over 50 s of residence within horizon 1000.
  EXPECT_NEAR(m.mean_download_throughput(1000), 100.0, 1e-9);
  // Residence clamped to horizon.
  auto& r2 = m.record(2);
  r2.join_time = 0;
  r2.bytes_downloaded = 1000;  // never finished
  EXPECT_NEAR(m.mean_download_throughput(100), (100.0 + 10.0) / 2, 1e-9);
}

TEST(OptimalCompletionTime, KumarRossBound) {
  // Seeder 100 B/s, 4 leechers at 100 B/s, file 1000 B:
  // max(1000/100, 4*1000/500) = max(10, 8) = 10.
  EXPECT_DOUBLE_EQ(
      optimal_completion_time(1000, 100, {100, 100, 100, 100}), 10.0);
  // Many slow leechers: aggregate bound dominates.
  EXPECT_DOUBLE_EQ(optimal_completion_time(1000, 1000, {10, 10}),
                   2.0 * 1000 / 1020.0);
  EXPECT_THROW(optimal_completion_time(1000, 0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace tc::analysis
