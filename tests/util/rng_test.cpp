#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace tc::util {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto w = v;
  r.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(37);
  const auto s = r.sample_indices(100, 30);
  ASSERT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesClampsToN) {
  Rng r(41);
  EXPECT_EQ(r.sample_indices(5, 10).size(), 5u);
  EXPECT_TRUE(r.sample_indices(0, 3).empty());
}

TEST(Rng, SampleIndicesIsUniform) {
  Rng r(43);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 20000; ++trial) {
    for (auto i : r.sample_indices(10, 3)) ++counts[i];
  }
  // Each index expected 20000 * 3/10 = 6000.
  for (int c : counts) EXPECT_NEAR(c, 6000, 300);
}

TEST(Rng, PickReturnsElement) {
  Rng r(53);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = r.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(SplitMix64, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = split_mix64(s);
  const auto b = split_mix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(split_mix64(s2), a);
}

}  // namespace
}  // namespace tc::util
