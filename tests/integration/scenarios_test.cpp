// Cross-protocol integration scenarios: determinism, forced mid-swarm
// departures (§II-B4 recovery), churn with replacement, and conservation
// invariants that must hold for every incentive scheme.
#include <gtest/gtest.h>

#include "src/analysis/metrics.h"
#include "src/bt/swarm.h"
#include "src/obs/chain_view.h"
#include "src/protocols/registry.h"
#include "src/protocols/tchain.h"

namespace tc {
namespace {

using F = analysis::SwarmMetrics::PeerFilter;

bt::SwarmConfig scenario_config(bt::Protocol& proto, std::size_t leechers) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = leechers;
  cfg.piece_bytes = proto.default_piece_bytes();
  cfg.file_bytes = 32 * cfg.piece_bytes;
  cfg.seed = 21;
  cfg.max_sim_time = 50'000.0;
  cfg.freerider_stall_timeout = 800.0;
  return cfg;
}

class AllProtocols : public ::testing::TestWithParam<const char*> {};

TEST_P(AllProtocols, ByteConservationAcrossSwarm) {
  auto proto = protocols::make_protocol(GetParam());
  bt::Swarm swarm(scenario_config(*proto, 16), *proto);
  swarm.run();
  // Sum of all uploads equals sum of all downloads (per-peer recorded).
  double up = 0, down = 0;
  for (const auto* rec : swarm.metrics().all()) {
    up += rec->bytes_uploaded;
    down += rec->bytes_downloaded;
  }
  EXPECT_NEAR(up, down, 1.0) << GetParam();
  EXPECT_GT(up, 0.0);
}

TEST_P(AllProtocols, EveryCompletedLeecherDownloadedWholeFile) {
  auto proto = protocols::make_protocol(GetParam());
  auto cfg = scenario_config(*proto, 16);
  bt::Swarm swarm(cfg, *proto);
  swarm.run();
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->seeder || !rec->finished()) continue;
    EXPECT_GE(rec->pieces_downloaded, 32) << GetParam();
    // Bytes cover at least the file (duplicates/aborts may add more).
    EXPECT_GE(rec->bytes_downloaded, static_cast<double>(cfg.file_bytes) * 0.99)
        << GetParam();
  }
}

TEST_P(AllProtocols, SurvivesForcedMidSwarmDepartures) {
  auto proto = protocols::make_protocol(GetParam());
  auto cfg = scenario_config(*proto, 24);
  bt::Swarm swarm(cfg, *proto);
  // Yank five leechers out mid-download, whatever they are doing.
  for (int k = 1; k <= 5; ++k) {
    swarm.simulator().schedule_at(15.0 * k, [&swarm] {
      for (bt::PeerId id : swarm.active_peers()) {
        const bt::Peer* p = swarm.peer(id);
        if (p != nullptr && !p->seeder && !p->have.complete() &&
            !p->have.empty()) {
          swarm.depart(id);
          return;
        }
      }
    });
  }
  swarm.run();
  // Everyone who stayed still finishes.
  std::size_t stayed_unfinished = 0;
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->seeder) continue;
    const bool departed_early = rec->depart_time >= 0 && !rec->finished();
    if (!departed_early && !rec->finished()) ++stayed_unfinished;
  }
  EXPECT_EQ(stayed_unfinished, 0u) << GetParam();
}

TEST_P(AllProtocols, ChurnWithReplacementKeepsServing) {
  auto proto = protocols::make_protocol(GetParam());
  auto cfg = scenario_config(*proto, 20);
  cfg.file_bytes = 8 * cfg.piece_bytes;  // small file, fast churn
  cfg.replace_on_finish = true;
  cfg.max_sim_time = 400.0;
  bt::Swarm swarm(cfg, *proto);
  swarm.run();
  // Population is maintained and throughput is nonzero.
  EXPECT_EQ(swarm.active_leecher_count(), 20u) << GetParam();
  EXPECT_GT(swarm.metrics().mean_download_throughput(400.0), 0.0) << GetParam();
  // Many generations completed within the horizon.
  std::size_t finished = swarm.metrics().completion_times(F::kAll).count();
  EXPECT_GT(finished, 20u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocols,
                         ::testing::Values("bittorrent", "propshare",
                                           "fairtorrent", "tchain"));

TEST(Scenarios, TChainSurvivesSeederlessPeriodDepartures) {
  // Heavy departure pressure specifically on T-Chain's transaction cleanup:
  // every few seconds the leecher with the most pieces leaves.
  protocols::TChainProtocol proto;
  auto cfg = scenario_config(proto, 30);
  bt::Swarm swarm(cfg, proto);
  swarm.enable_obs(obs::TraceConfig{});
  for (int k = 1; k <= 10; ++k) {
    swarm.simulator().schedule_at(8.0 * k, [&swarm] {
      bt::PeerId best = net::kNoPeer;
      std::size_t most = 0;
      for (bt::PeerId id : swarm.active_peers()) {
        const bt::Peer* p = swarm.peer(id);
        if (p == nullptr || p->seeder || p->have.complete()) continue;
        if (p->have.count() >= most) {
          most = p->have.count();
          best = id;
        }
      }
      if (best != net::kNoPeer) swarm.depart(best);
    });
  }
  swarm.run();
  // No dangling transactions at the end.
  EXPECT_EQ(proto.transactions().size(), 0u);
  // Every chain the run started was broken: the census drained.
  ASSERT_EQ(swarm.obs()->ring().dropped(), 0u);
  EXPECT_EQ(obs::ChainView::reconstruct(swarm.obs()->events()).active_at_end(),
            0u);
}

TEST(Scenarios, MixedBandwidthClassesFinishInOrder) {
  // Faster classes should on average finish earlier (paper's saw-tooth).
  protocols::TChainProtocol proto;
  bt::Swarm swarm(scenario_config(proto, 30), proto);
  swarm.run();
  util::RunningStats slow, fast;
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->seeder || !rec->finished()) continue;
    const double t = rec->completion_time();
    if (rec->upload_kbps == bt::kLeecherUploadKbps.front()) slow.add(t);
    if (rec->upload_kbps == bt::kLeecherUploadKbps.back()) fast.add(t);
  }
  ASSERT_GT(slow.count(), 0u);
  ASSERT_GT(fast.count(), 0u);
  EXPECT_GT(slow.mean(), fast.mean());
}

TEST(Scenarios, SeedIsolationBetweenRuns) {
  // Two protocols run back-to-back with the same seed must not interfere
  // (no global state).
  auto run = [](const char* name) {
    auto proto = protocols::make_protocol(name);
    bt::Swarm swarm(scenario_config(*proto, 12), *proto);
    swarm.run();
    return swarm.metrics().completion_times(F::kCompliant).mean();
  };
  const double a1 = run("tchain");
  (void)run("bittorrent");
  const double a2 = run("tchain");
  EXPECT_DOUBLE_EQ(a1, a2);
}

}  // namespace
}  // namespace tc
