// Counter semantics, log-histogram percentile accuracy against the
// exact util::Distribution, and snapshot determinism.
#include "src/obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/util/rng.h"
#include "src/util/stats.h"

namespace tc::obs {
namespace {

TEST(Counter, IncrementsByDelta) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(LogHistogram, EmptyStateIsAllZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(LogHistogram, TracksExactMeanMinMax) {
  LogHistogram h;
  for (double v : {0.5, 2.0, 8.0, 32.0}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.5 / 4);  // sum is exact, not bucketed
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 32.0);
}

// The documented accuracy contract: percentile() lands within one bucket's
// relative width — 10^(1/(2*16)) - 1 ≈ 7.5% at the default resolution — of
// the exact order-statistic percentile.
TEST(LogHistogram, PercentilesMatchExactDistributionWithinBucketWidth) {
  LogHistogram h;
  util::Distribution exact;
  util::Rng rng(99);
  for (int i = 0; i < 20'000; ++i) {
    // Log-uniform over [1e-2, 1e4]: exercises many decades of buckets.
    const double v = std::pow(10.0, -2.0 + 6.0 * rng.uniform());
    h.add(v);
    exact.add(v);
  }
  const double tol = std::pow(10.0, 1.0 / 32.0) - 1.0;  // half-bucket bound
  for (double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double want = exact.percentile(p);
    const double got = h.percentile(p);
    EXPECT_NEAR(got, want, 2 * tol * want) << "p=" << p;
  }
}

TEST(LogHistogram, PercentileClampsToObservedRange) {
  LogHistogram h;
  h.add(3.0);
  h.add(5.0);
  EXPECT_GE(h.percentile(0.0), 3.0);
  EXPECT_LE(h.percentile(1.0), 5.0);
}

TEST(LogHistogram, UnderflowAndOverflowAreCounted) {
  LogHistogram h(1e-2, 1e2, 8);
  h.add(0.0);    // non-positive -> underflow bucket
  h.add(-1.0);   // likewise
  h.add(1e9);    // overflow bucket
  h.add(1.0);    // in range
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Percentiles stay inside the observed range even for edge buckets.
  EXPECT_LE(h.percentile(0.999), 1e9);
}

TEST(Registry, LookupCreatesOnceAndReferencesAreStable) {
  Registry r;
  Counter& a = r.counter("x");
  a.inc();
  // Creating unrelated metrics must not invalidate `a` (node-based map).
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    r.counter(name);
  }
  r.counter("x").inc();
  EXPECT_EQ(a.value(), 2u);
}

TEST(Registry, SnapshotIsNameSortedAndExpandsHistograms) {
  Registry r;
  r.counter("m.count").inc(7);
  r.counter("b.count").inc(2);
  auto& h = r.histogram("lat");
  for (double v : {1.0, 2.0, 4.0}) h.add(v);

  const auto snap = r.snapshot();
  std::vector<std::string> keys;
  for (const auto& [k, v] : snap) keys.push_back(k);
  // Counters, then histogram expansions; sorted within kind.
  const std::vector<std::string> want = {
      "b.count", "m.count", "lat.count", "lat.mean",
      "lat.p50", "lat.p90", "lat.p99",   "lat.max"};
  EXPECT_EQ(keys, want);
  EXPECT_EQ(snap[1].second, 7.0);             // m.count
  EXPECT_EQ(snap[2].second, 3.0);             // lat.count
  EXPECT_DOUBLE_EQ(snap[3].second, 7.0 / 3);  // lat.mean is exact
}

TEST(Registry, EmptyReflectsContents) {
  Registry r;
  EXPECT_TRUE(r.empty());
  r.histogram("h");
  EXPECT_FALSE(r.empty());
}

}  // namespace
}  // namespace tc::obs
