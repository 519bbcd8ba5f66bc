#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace tc::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small, large;
  for (int i = 0; i < 5; ++i) small.add(i % 2);
  for (int i = 0; i < 500; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(RunningStats, NumericalStabilityLargeOffset) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 3));
  EXPECT_NEAR(s.mean(), 1e9 + 1.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0 * 1000.0 / 999.0, 1e-3);
}

TEST(TQuantile, KnownValues) {
  EXPECT_NEAR(t_quantile_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_quantile_975(10), 2.228, 1e-3);
  EXPECT_NEAR(t_quantile_975(29), 2.045, 1e-3);
  EXPECT_NEAR(t_quantile_975(1000), 1.96, 1e-3);
}

TEST(Distribution, MeanAndMedian) {
  Distribution d;
  for (double x : {1, 2, 3, 4, 100}) d.add(x);
  EXPECT_DOUBLE_EQ(d.mean(), 22.0);
  EXPECT_DOUBLE_EQ(d.median(), 3.0);
}

TEST(Distribution, PercentileInterpolates) {
  Distribution d;
  d.add(0);
  d.add(10);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.percentile(1.0), 10.0);
}

TEST(Distribution, PercentileOfEmptyThrows) {
  Distribution d;
  EXPECT_THROW(d.percentile(0.5), std::out_of_range);
}

TEST(Distribution, InterleavedAddAndQuery) {
  Distribution d;
  d.add(5);
  EXPECT_DOUBLE_EQ(d.median(), 5.0);
  d.add(1);
  d.add(9);
  EXPECT_DOUBLE_EQ(d.median(), 5.0);  // re-sorts after mutation
}

}  // namespace
}  // namespace tc::util
