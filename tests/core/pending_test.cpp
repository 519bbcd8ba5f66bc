#include "src/core/pending.h"

#include <gtest/gtest.h>

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
  PendingTracker t(1);
  EXPECT_EQ(t.cap(), 1);
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

}  // namespace
}  // namespace tc::core
