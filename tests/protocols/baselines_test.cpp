// Baseline protocols (BitTorrent, PropShare, FairTorrent, RandomBT):
// completion sanity plus the scheme-specific behaviours the paper leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/protocols/choking.h"
#include "src/protocols/fairtorrent.h"
#include "src/protocols/registry.h"

namespace tc::protocols {
namespace {

using F = analysis::SwarmMetrics::PeerFilter;

bt::SwarmConfig small_config(bt::Protocol& proto, std::size_t leechers,
                             double freeriders = 0.0) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = leechers;
  cfg.piece_bytes = proto.default_piece_bytes();
  cfg.file_bytes = 32 * cfg.piece_bytes;  // 32 pieces for every protocol
  cfg.freerider_fraction = freeriders;
  cfg.seed = 5;
  cfg.max_sim_time = 60'000.0;
  cfg.freerider_stall_timeout = 2000.0;
  return cfg;
}

class BaselineCompletes : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineCompletes, AllCompliantLeechersFinish) {
  auto proto = make_protocol(GetParam());
  bt::Swarm swarm(small_config(*proto, 20), *proto);
  swarm.run();
  EXPECT_EQ(swarm.metrics().unfinished_count(F::kCompliant), 0u)
      << GetParam();
  EXPECT_EQ(swarm.metrics().completion_times(F::kCompliant).count(), 20u);
}

TEST_P(BaselineCompletes, DeterministicGivenSeed) {
  auto run_once = [&] {
    auto proto = make_protocol(GetParam());
    bt::Swarm swarm(small_config(*proto, 10), *proto);
    swarm.run();
    return swarm.metrics().completion_times(F::kCompliant).mean();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineCompletes,
                         ::testing::Values("bittorrent", "propshare",
                                           "fairtorrent", "randombt"));

TEST(Registry, KnownAndUnknownNames) {
  EXPECT_EQ(make_protocol("tchain")->name(), "T-Chain");
  EXPECT_EQ(make_protocol("T-Chain")->name(), "T-Chain");
  EXPECT_EQ(make_protocol("bt")->name(), "BitTorrent");
  EXPECT_EQ(make_protocol("random")->name(), "RandomBT");
  EXPECT_THROW(make_protocol("gnutella"), std::invalid_argument);
  EXPECT_EQ(paper_protocols().size(), 4u);
}

TEST(Registry, PieceSizesMatchPaper) {
  EXPECT_EQ(make_protocol("bittorrent")->default_piece_bytes(), 256 * 1024);
  EXPECT_EQ(make_protocol("propshare")->default_piece_bytes(), 256 * 1024);
  EXPECT_EQ(make_protocol("fairtorrent")->default_piece_bytes(), 64 * 1024);
  EXPECT_EQ(make_protocol("tchain")->default_piece_bytes(), 64 * 1024);
}

TEST(BitTorrent, FreeRidersFinishSlowerThanCompliant) {
  auto proto = make_protocol("bittorrent");
  bt::Swarm swarm(small_config(*proto, 20, 0.25), *proto);
  swarm.run();
  const auto& m = swarm.metrics();
  const auto compliant = m.completion_times(F::kCompliant);
  const auto fr = m.completion_times(F::kFreeRiders);
  ASSERT_GT(compliant.count(), 0u);
  // Free-riders exploit optimistic unchokes + seeder altruism: they do
  // finish (the paper's point), but much slower.
  EXPECT_GT(fr.count() + m.unfinished_count(F::kFreeRiders), 0u);
  if (fr.count() > 0) {
    EXPECT_GT(fr.mean(), compliant.mean());
  }
}

TEST(FairTorrent, DeficitsTrackTransfersSymmetrically) {
  // A delivery adds the piece bytes to the sender's deficit for the
  // receiver, and on_piece_complete subtracts them from the receiver's
  // deficit for the sender: every pair of live neighbours reads
  // deficit(a, b) == -deficit(b, a) at any instant. Whitewashing
  // free-riders make departed identities mid-run too.
  FairTorrentProtocol proto;
  bt::Swarm swarm(small_config(proto, 8, 0.25), proto);
  std::size_t pairs_checked = 0;
  std::vector<std::pair<bt::PeerId, bt::PeerId>> owing;  // nonzero deficits
  std::function<void()> inspect = [&] {
    for (bt::PeerId a : swarm.active_peers()) {
      for (bt::PeerId b : swarm.peer(a)->neighbors) {
        if (!swarm.is_active(b)) continue;
        ++pairs_checked;
        EXPECT_EQ(proto.deficit(a, b), -proto.deficit(b, a)) << a << "," << b;
        if (proto.deficit(a, b) != 0.0) owing.emplace_back(a, b);
      }
    }
    // Arrivals span the first 10 s (flash crowd).
    if (swarm.simulator().now() < 10.0 || swarm.active_leecher_count() > 0)
      swarm.simulator().schedule_in(2.0, inspect);
  };
  swarm.simulator().schedule_in(2.0, inspect);
  swarm.run();
  EXPECT_EQ(swarm.metrics().unfinished_count(F::kCompliant), 0u);
  EXPECT_GT(pairs_checked, 0u);
  ASSERT_FALSE(owing.empty());
  // Once departed, an identity reads 0 against everyone.
  std::size_t departed = 0;
  for (const auto& [a, b] : owing) {
    if (swarm.is_active(a)) continue;
    ++departed;
    EXPECT_EQ(proto.deficit(a, b), 0.0) << a << "," << b;
  }
  EXPECT_GT(departed, 0u);
}

TEST(FairTorrent, IdleSeederServesALateJoinerAtOnce) {
  // The first leecher finishes and leaves long before the second joins, so
  // the seeder walks its neighbours in vain on every period tick and marks
  // itself as wanted by nobody. Only the new link's wake-up lets it serve
  // the late joiner; without it the seeder stays idle for good.
  FairTorrentProtocol proto;
  bt::Swarm swarm(small_config(proto, 2), proto, {0.0, 105.0});
  swarm.run();
  std::vector<const analysis::PeerRecord*> leechers;
  for (const analysis::PeerRecord* r : swarm.metrics().all())
    if (!r->seeder) leechers.push_back(r);
  ASSERT_EQ(leechers.size(), 2u);
  std::sort(leechers.begin(), leechers.end(), [](const auto* a, const auto* b) {
    return a->join_time < b->join_time;
  });
  ASSERT_TRUE(leechers[0]->finished());
  EXPECT_LT(leechers[0]->finish_time, 105.0);
  ASSERT_TRUE(leechers[1]->finished());
  EXPECT_EQ(leechers[1]->join_time, 105.0);
  EXPECT_LT(leechers[1]->completion_time(), 5.0);
}

TEST(FairTorrent, WhitewashingFreeRidersFinishFast) {
  FairTorrentProtocol proto;
  auto cfg = small_config(proto, 20, 0.25);
  bt::Swarm swarm(cfg, proto);
  swarm.run();
  const auto& m = swarm.metrics();
  const auto fr = m.completion_times(F::kFreeRiders);
  // §IV-C: simple whitewashing lets FairTorrent free-riders finish.
  EXPECT_EQ(fr.count(), 5u);
  // Within the same order of magnitude as compliant leechers.
  const auto compliant = m.completion_times(F::kCompliant);
  EXPECT_LT(fr.mean(), 10.0 * compliant.mean());
}

TEST(FairTorrent, FasterThanBitTorrentWithoutFreeRiders) {
  // Fig 3(a): FairTorrent's full-rate deficit scheduling beats BT's
  // slot-based choking.
  auto ft = make_protocol("fairtorrent");
  bt::Swarm s1(small_config(*ft, 20), *ft);
  s1.run();
  auto bt_ = make_protocol("bittorrent");
  bt::Swarm s2(small_config(*bt_, 20), *bt_);
  s2.run();
  EXPECT_LT(s1.metrics().completion_times(F::kCompliant).mean(),
            s2.metrics().completion_times(F::kCompliant).mean());
}

TEST(Baselines, RateBasedSchemesRewardFasterUploaders) {
  // TFT and PropShare both allocate service by contribution, so the
  // 1200 Kbps class must finish ahead of the 400 Kbps class on average.
  for (const char* name : {"bittorrent", "propshare"}) {
    auto proto = make_protocol(name);
    auto cfg = small_config(*proto, 30);
    cfg.file_bytes = 96 * cfg.piece_bytes;  // enough pieces for rates to show
    bt::Swarm swarm(cfg, *proto);
    swarm.run();
    util::RunningStats slow, fast;
    for (const auto* rec : swarm.metrics().all()) {
      if (rec->seeder || !rec->finished()) continue;
      const double t = rec->completion_time();
      if (rec->upload_kbps == bt::kLeecherUploadKbps.front()) slow.add(t);
      if (rec->upload_kbps == bt::kLeecherUploadKbps.back()) fast.add(t);
    }
    ASSERT_GT(slow.count(), 0u) << name;
    ASSERT_GT(fast.count(), 0u) << name;
    EXPECT_GT(slow.mean(), fast.mean()) << name;
  }
}

TEST(Baselines, FreeRidersInBitTorrentLiveOffOptimisticSlots) {
  // With zero contribution, a free-rider's download rate should be a small
  // fraction of a compliant leecher's — bounded by optimistic unchokes and
  // seeder rotation, not TFT slots.
  auto proto = make_protocol("bittorrent");
  auto cfg = small_config(*proto, 20, 0.25);
  cfg.file_bytes = 96 * cfg.piece_bytes;
  cfg.freerider_whitewash = false;  // isolate the optimistic-slot channel
  cfg.freerider_large_view = false;
  bt::Swarm swarm(cfg, *proto);
  swarm.run();
  const auto& m = swarm.metrics();
  const auto compliant = m.completion_times(F::kCompliant);
  const auto fr = m.completion_times(F::kFreeRiders);
  ASSERT_GT(compliant.count(), 0u);
  // The §III-A1 exploit in action: contributing NOTHING, free-riders still
  // complete the whole file off optimistic unchokes and seeder rotation —
  // merely somewhat slower than compliant peers. (T-Chain's counterpart
  // test asserts zero completions.)
  EXPECT_EQ(fr.count() + m.unfinished_count(F::kFreeRiders), 5u);
  EXPECT_GT(fr.count(), 0u);
  EXPECT_GT(fr.mean(), compliant.mean());
}

TEST(Baselines, UplinkUtilizationIsMeaningful) {
  for (const auto& name : paper_protocols()) {
    auto proto = make_protocol(name);
    bt::Swarm swarm(small_config(*proto, 16), *proto);
    swarm.run();
    const double u = swarm.metrics().mean_uplink_utilization(
        F::kCompliant, swarm.end_time());
    EXPECT_GT(u, 0.2) << name;
    EXPECT_LE(u, 1.0) << name;
  }
}

}  // namespace
}  // namespace tc::protocols
