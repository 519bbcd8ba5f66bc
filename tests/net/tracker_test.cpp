#include "src/net/tracker.h"

#include <gtest/gtest.h>

#include <set>

namespace tc::net {
namespace {

TEST(Tracker, AnnounceAndDepart) {
  Tracker t;
  t.announce(1);
  t.announce(2);
  t.announce(2);  // idempotent
  EXPECT_EQ(t.size(), 2u);
  t.depart(1);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Tracker, NeighborListExcludesRequester) {
  Tracker t;
  util::Rng rng(1);
  for (PeerId p = 1; p <= 20; ++p) t.announce(p);
  for (int trial = 0; trial < 50; ++trial) {
    const auto list = t.neighbor_list(5, rng);
    EXPECT_EQ(list.size(), 19u);
    for (PeerId p : list) EXPECT_NE(p, 5u);
  }
}

TEST(Tracker, NeighborListCapsAtListSize) {
  Tracker t;
  util::Rng rng(2);
  for (PeerId p = 1; p <= 200; ++p) t.announce(p);
  const auto list = t.neighbor_list(1, rng);
  EXPECT_EQ(list.size(), kTrackerListSize);
  std::set<PeerId> uniq(list.begin(), list.end());
  EXPECT_EQ(uniq.size(), kTrackerListSize);  // no duplicates
}

TEST(Tracker, NeighborListOmitsDeparted) {
  Tracker t;
  util::Rng rng(3);
  for (PeerId p = 1; p <= 60; ++p) t.announce(p);
  for (PeerId p = 1; p <= 30; ++p) t.depart(p);
  for (int trial = 0; trial < 20; ++trial) {
    for (PeerId p : t.neighbor_list(100, rng)) EXPECT_GT(p, 30u);
  }
}

TEST(Tracker, NewcomerNotYetAnnouncedCanRequest) {
  Tracker t;
  util::Rng rng(4);
  t.announce(1);
  t.announce(2);
  const auto list = t.neighbor_list(99, rng);
  EXPECT_EQ(list.size(), 2u);
}

TEST(Tracker, EmptySwarm) {
  Tracker t;
  util::Rng rng(5);
  EXPECT_TRUE(t.neighbor_list(1, rng).empty());
  t.announce(1);
  EXPECT_TRUE(t.neighbor_list(1, rng).empty());  // only the requester
}

TEST(Tracker, SamplingIsRoughlyUniform) {
  // 500 members, lists of 50: the sparse rejection sampler (a list under a
  // third of the members), with each member's chance 1 in 10 per list.
  static_assert(kTrackerListSize == 50);
  Tracker t;
  util::Rng rng(7);
  for (PeerId p = 1; p <= 500; ++p) t.announce(p);
  std::vector<int> hits(501, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    for (PeerId p : t.neighbor_list(0, rng)) ++hits[p];
  }
  // Each peer expected 2000 * 50/500 = 200 hits.
  for (PeerId p = 1; p <= 500; ++p) EXPECT_NEAR(hits[p], 200, 80) << p;
}

}  // namespace
}  // namespace tc::net
