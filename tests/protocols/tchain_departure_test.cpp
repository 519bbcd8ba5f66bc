// §II-B4 departure handling, exercised deterministically against the live
// protocol: donors leaving mid-exchange (key escrow), payees leaving
// (reassignment), and requestors leaving (obligation death). Counts come
// from the run's trace, which never perturbs the run.
#include <gtest/gtest.h>

#include "src/analysis/metrics.h"
#include "src/bt/swarm.h"
#include "src/obs/chain_view.h"
#include "src/protocols/tchain.h"

namespace tc::protocols {
namespace {

using F = analysis::SwarmMetrics::PeerFilter;

bt::SwarmConfig cfg_for(std::size_t leechers, std::uint64_t seed) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = leechers;
  cfg.file_bytes = 2 * util::kMiB;
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.seed = seed;
  cfg.max_sim_time = 20'000.0;
  return cfg;
}

TEST(TChainDepartures, RandomDeparturesNeverWedgeTheSwarm) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TChainProtocol proto;
    auto cfg = cfg_for(24, seed);
    bt::Swarm swarm(cfg, proto);
    swarm.enable_obs(obs::TraceConfig{});
    util::Rng chaos(seed * 1337);
    // Remove a random active leecher every 7 s for a while — donors,
    // requestors and payees alike get yanked.
    for (int k = 1; k <= 8; ++k) {
      swarm.simulator().schedule_at(7.0 * k, [&swarm, &chaos] {
        std::vector<bt::PeerId> live;
        for (bt::PeerId id : swarm.active_peers()) {
          const bt::Peer* p = swarm.peer(id);
          if (p != nullptr && !p->seeder && !p->have.complete())
            live.push_back(id);
        }
        if (!live.empty()) swarm.depart(live[chaos.index(live.size())]);
      });
    }
    swarm.run();
    // Whoever remained finished; the transaction table drained.
    std::size_t stayed_unfinished = 0;
    for (const auto* rec : swarm.metrics().all()) {
      if (rec->seeder) continue;
      if (rec->depart_time >= 0 && !rec->finished()) continue;  // yanked
      if (!rec->finished()) ++stayed_unfinished;
    }
    EXPECT_EQ(stayed_unfinished, 0u) << "seed " << seed;
    EXPECT_EQ(proto.transactions().size(), 0u) << "seed " << seed;
    ASSERT_EQ(swarm.obs()->ring().dropped(), 0u) << "seed " << seed;
    EXPECT_EQ(obs::ChainView::reconstruct(swarm.obs()->events()).active_at_end(),
              0u)
        << "seed " << seed;
  }
}

TEST(TChainDepartures, KeyEscrowHappensWhenDonorsLeave) {
  // Aggressive departures of nearly-complete peers (likely donors with
  // outstanding AwaitKey transactions) must produce escrow events without
  // wedging anything.
  TChainProtocol proto;
  auto cfg = cfg_for(30, 5);
  bt::Swarm swarm(cfg, proto);
  swarm.enable_obs(obs::TraceConfig{});
  for (int k = 1; k <= 12; ++k) {
    swarm.simulator().schedule_at(4.0 * k, [&swarm] {
      // Depart the peer with the most pieces (the busiest donor).
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
  // The mechanism exists and fired (or the run legitimately avoided it,
  // which at this departure pressure is not plausible).
  obs::Trace& trace = *swarm.obs();
  EXPECT_GT(trace.count(obs::EventKind::kKeyEscrowed) +
                trace.registry().counter("tchain.payee_reassignments").value(),
            0u);
  EXPECT_EQ(proto.transactions().size(), 0u);
}

TEST(TChainDepartures, ReassignmentKeepsChainsAlive) {
  TChainProtocol proto;
  auto cfg = cfg_for(30, 6);
  bt::Swarm swarm(cfg, proto);
  swarm.enable_obs(obs::TraceConfig{});
  // Departure chaos targeting random peers (payees among them).
  util::Rng chaos(99);
  for (int k = 1; k <= 10; ++k) {
    swarm.simulator().schedule_at(5.0 * k, [&swarm, &chaos] {
      std::vector<bt::PeerId> live;
      for (bt::PeerId id : swarm.active_peers()) {
        const bt::Peer* p = swarm.peer(id);
        if (p != nullptr && !p->seeder) live.push_back(id);
      }
      if (!live.empty()) swarm.depart(live[chaos.index(live.size())]);
    });
  }
  swarm.run();
  EXPECT_GT(
      swarm.obs()->registry().counter("tchain.payee_reassignments").value(),
      0u);
  // Everyone who wasn't forcibly departed finished.
  std::size_t stayed_unfinished = 0;
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->seeder || rec->finished()) continue;
    if (rec->depart_time >= 0) continue;  // yanked by the chaos schedule
    ++stayed_unfinished;
  }
  EXPECT_EQ(stayed_unfinished, 0u);
}

TEST(TChainDepartures, WhitewashStormIsSurvivable) {
  // Free-riders whitewashing at maximum rate (after every banked piece,
  // §IV-C) while large-viewing: protocol state must stay consistent.
  TChainProtocol proto;
  auto cfg = cfg_for(24, 7);
  cfg.freerider_fraction = 0.5;
  cfg.freerider_whitewash = true;
  cfg.freerider_large_view = true;
  cfg.freerider_stall_timeout = 400.0;
  bt::Swarm swarm(cfg, proto);
  swarm.run();
  EXPECT_EQ(swarm.metrics().unfinished_count(F::kCompliant), 0u);
  EXPECT_EQ(swarm.metrics().completion_times(F::kFreeRiders).count(), 0u);
  EXPECT_EQ(proto.transactions().size(), 0u);
}

}  // namespace
}  // namespace tc::protocols
