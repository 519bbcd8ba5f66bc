#include "src/trace/arrival.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tc::trace {
namespace {

TEST(FlashCrowd, AllWithinWindowAndSorted) {
  util::Rng rng(1);
  const auto t = flash_crowd_arrivals(500, rng);
  ASSERT_EQ(t.size(), 500u);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  EXPECT_GE(t.front(), 0.0);
  EXPECT_LT(t.back(), 10.0);
}

TEST(FlashCrowd, SpreadsAcrossWindow) {
  util::Rng rng(2);
  const auto t = flash_crowd_arrivals(1000, rng);
  // Roughly uniform: each half should hold ~500.
  const auto mid = std::lower_bound(t.begin(), t.end(), 5.0) - t.begin();
  EXPECT_NEAR(static_cast<double>(mid), 500.0, 80.0);
}

TEST(RedHatTrace, RateDecaysFromPeak) {
  RedHatTraceArrivals model;
  EXPECT_GT(model.rate_at(0.0), model.rate_at(200'000.0));
  EXPECT_GE(model.rate_at(2'000'000.0),
            RedHatTraceArrivals::Params().floor_rate * 0.99);
}

TEST(RedHatTrace, GeneratesRequestedCountSorted) {
  util::Rng rng(4);
  RedHatTraceArrivals model;
  const auto t = model.generate(2000, rng);
  ASSERT_EQ(t.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
}

TEST(RedHatTrace, FrontLoaded) {
  util::Rng rng(5);
  RedHatTraceArrivals model;
  const auto t = model.generate(2000, rng);
  // More arrivals in the first e-folding than in the next equal span.
  const double span = RedHatTraceArrivals::Params().decay_seconds;
  const auto first = std::lower_bound(t.begin(), t.end(), span) - t.begin();
  const auto second =
      std::lower_bound(t.begin(), t.end(), 2 * span) - t.begin() - first;
  EXPECT_GT(first, second);
}

TEST(SessionModels, LogNormalMedianAndTail) {
  util::Rng rng(12);
  LogNormalSessions model(100.0, 1.0);
  std::vector<double> d(20'000);
  for (auto& x : d) x = model.duration(rng);
  std::sort(d.begin(), d.end());
  // Median of exp(N(log 100, 1)) is 100; the tail is heavy (mean > median).
  EXPECT_NEAR(d[d.size() / 2], 100.0, 10.0);
  double mean = 0.0;
  for (double x : d) mean += x;
  mean /= static_cast<double>(d.size());
  EXPECT_GT(mean, d[d.size() / 2] * 1.3);
}

}  // namespace
}  // namespace tc::trace
