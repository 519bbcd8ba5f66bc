#include "src/core/pending.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/util/rng.h"

namespace tc::core {
namespace {

TEST(PendingTracker, StartsEmptyAndEligible) {
  PendingTracker t(2);
  EXPECT_EQ(t.pending(5), 0);
  EXPECT_TRUE(t.eligible(5));
}

TEST(PendingTracker, BansAtCap) {
  PendingTracker t(2);
  t.add(5);
  EXPECT_TRUE(t.eligible(5));
  t.add(5);
  EXPECT_FALSE(t.eligible(5));  // k = 2 outstanding => banned
  EXPECT_EQ(t.pending(5), 2);
  t.resolve(5);
  EXPECT_TRUE(t.eligible(5));
}

TEST(PendingTracker, ResolveIsIdempotentAtZero) {
  PendingTracker t(2);
  t.resolve(7);  // never added
  EXPECT_EQ(t.pending(7), 0);
  t.add(7);  // the no-op resolve left no debt behind
  EXPECT_EQ(t.pending(7), 1);
}

TEST(PendingTracker, PerNeighborIndependence) {
  PendingTracker t(1);
  t.add(1);
  EXPECT_FALSE(t.eligible(1));
  EXPECT_TRUE(t.eligible(2));
}

TEST(PendingTracker, CapValidation) {
  EXPECT_THROW(PendingTracker(0), std::invalid_argument);
}

TEST(PendingTracker, ResolvingMiddleAndLastLeavesOtherCountsIntact) {
  // More neighbours than kMaxNeighbors (55), each with its own count.
  constexpr PeerId kN = 60;
  PendingTracker t(100);
  for (PeerId n = 1; n <= kN; ++n) {
    for (PeerId i = 0; i < n % 5 + 1; ++i) t.add(n);
  }
  const auto expected = [](PeerId n) { return static_cast<int>(n % 5 + 1); };
  // Drain the middle entry, then the last one, to zero.
  for (const PeerId gone : {kN / 2, kN}) {
    for (int i = 0; i < expected(gone); ++i) t.resolve(gone);
  }
  t.resolve(kN);  // idempotent at zero
  for (PeerId n = 1; n <= kN; ++n) {
    const int want = n == kN / 2 || n == kN ? 0 : expected(n);
    EXPECT_EQ(t.pending(n), want) << n;
  }
  // A drained neighbour counts from zero again.
  t.add(kN / 2);
  EXPECT_EQ(t.pending(kN / 2), 1);
  EXPECT_EQ(t.pending(kN - 1), expected(kN - 1));
}

TEST(PendingTracker, FreeRiderAccumulatesAndStaysBanned) {
  // The §II-D2 scenario: uploads to a non-reciprocating neighbor pile up
  // and it is banned until (never) resolving.
  PendingTracker t(2);
  t.add(9);
  t.add(9);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(t.eligible(9));
  // A compliant neighbor cycles fine.
  for (int i = 0; i < 10; ++i) {
    t.add(4);
    EXPECT_TRUE(t.eligible(4));
    t.resolve(4);
  }
}

TEST(PendingTracker, MatchesAReferenceCountUnderRandomAddsAndResolves) {
  // Seeded random adds and resolves over 20 ids, checked after every step
  // against a plain map. Adds and resolves are equally likely, so counts
  // wander past the cap and back to zero, and resolves hit ids the
  // tracker does not hold.
  constexpr PeerId kIds = 20;
  for (const int cap : {1, 2, 3}) {
    int adds_past_cap = 0;
    int resolves_of_absent = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      PendingTracker t(cap);
      std::map<PeerId, int> want;
      util::Rng rng(seed);
      for (int step = 0; step < 400; ++step) {
        const auto n = static_cast<PeerId>(rng.index(kIds));
        int& count = want[n];
        if (rng.index(2) == 0) {
          t.add(n);
          adds_past_cap += count >= cap;
          ++count;
        } else {
          t.resolve(n);
          resolves_of_absent += count == 0;
          if (count > 0) --count;
        }
        std::set<PeerId> banned;
        for (PeerId id = 0; id < kIds; ++id) {
          const int c = want[id];
          ASSERT_EQ(t.pending(id), c)
              << "cap " << cap << " seed " << seed << " step " << step;
          ASSERT_EQ(t.eligible(id), c < cap)
              << "cap " << cap << " seed " << seed << " step " << step;
          if (c >= cap) banned.insert(id);
        }
        const auto& at_cap = t.at_cap();
        ASSERT_EQ(at_cap.size(), banned.size())
            << "cap " << cap << " seed " << seed << " step " << step;
        ASSERT_EQ(std::set<PeerId>(at_cap.begin(), at_cap.end()), banned)
            << "cap " << cap << " seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(adds_past_cap, 0) << "cap " << cap;
    EXPECT_GT(resolves_of_absent, 0) << "cap " << cap;
  }
}

}  // namespace
}  // namespace tc::core
