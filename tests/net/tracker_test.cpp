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

// The exact lists for one seed, recorded from the sampler as the simulator
// first used it: a sampler change that moves a draw fails here.
TEST(Tracker, SparseSampleDrawsArePinned) {
  // 401 members (a 400-leecher swarm and its seeder): 50 < 401 / 3, so the
  // rejection sampler; its 56 draws reject six repeats.
  Tracker t;
  for (PeerId p = 0; p <= 400; ++p) t.announce(p);
  util::Rng rng(32);
  const std::vector<PeerId> want = {
      49,  377, 138, 6,   351, 19,  105, 246, 197, 195, 309, 77,  64,
      310, 131, 3,   78,  289, 277, 344, 42,  73,  391, 137, 194, 148,
      97,  198, 387, 342, 75,  190, 27,  15,  225, 111, 331, 165, 29,
      16,  219, 13,  343, 233, 158, 250, 285, 241, 107, 60};
  EXPECT_EQ(t.neighbor_list(7, rng), want);
}

TEST(Tracker, DenseSampleDrawsArePinned) {
  // 30 members: the 29 wanted are over a third of them, so the shuffled
  // copy.
  Tracker t;
  for (PeerId p = 0; p < 30; ++p) t.announce(p);
  util::Rng rng(32);
  const std::vector<PeerId> want = {27, 5,  20, 23, 9,  28, 19, 2,  13, 10,
                                    12, 0,  18, 14, 21, 29, 25, 15, 1,  4,
                                    3,  16, 11, 8,  26, 6,  17, 22, 24};
  EXPECT_EQ(t.neighbor_list(7, rng), want);
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
