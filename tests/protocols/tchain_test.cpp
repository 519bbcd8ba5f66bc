// End-to-end T-Chain protocol behaviour on small swarms: the paper's core
// claims as executable properties. Counts come from the run's trace
// (obs::Trace::count, obs::ChainView, "tchain.*" registry counters);
// tracing never perturbs a run, so the traced run is the run under test.
#include "src/protocols/tchain.h"

#include <gtest/gtest.h>

#include "src/analysis/metrics.h"
#include "src/obs/chain_view.h"
#include "tests/obs/piece_event_property.h"

namespace tc::protocols {
namespace {

using F = analysis::SwarmMetrics::PeerFilter;

bt::SwarmConfig small_config(std::size_t leechers, double freeriders = 0.0) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = leechers;
  cfg.file_bytes = 2 * util::kMiB;  // 32 pieces of 64 KiB
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.freerider_fraction = freeriders;
  cfg.seed = 11;
  cfg.max_sim_time = 20'000.0;
  cfg.freerider_stall_timeout = 500.0;
  return cfg;
}

// A swarm with tracing on (all kinds, default ring).
struct TracedSwarm {
  bt::Swarm swarm;
  TracedSwarm(const bt::SwarmConfig& cfg, TChainProtocol& proto)
      : swarm(cfg, proto) {
    swarm.enable_obs(obs::TraceConfig{});
    swarm.run();
  }
  obs::Trace& trace() { return *swarm.obs(); }
  obs::ChainView view() {
    EXPECT_EQ(trace().ring().dropped(), 0u) << "ring sized too small";
    return obs::ChainView::reconstruct(trace().events());
  }
  std::uint64_t counter(const char* name) {
    return trace().registry().counter(name).value();
  }
};

TEST(TChain, AllCompliantLeechersFinish) {
  TChainProtocol proto;
  bt::Swarm swarm(small_config(30), proto);
  swarm.run();
  EXPECT_EQ(swarm.metrics().completion_times(F::kCompliant).count(), 30u);
  EXPECT_EQ(swarm.metrics().unfinished_count(F::kCompliant), 0u);
}

TEST(TChain, PieceAccountingBalances) {
  TChainProtocol proto;
  TracedSwarm run(small_config(20), proto);
  const auto view = run.view();
  const std::uint64_t keys = run.trace().count(obs::EventKind::kKeyDelivered);
  // Every piece any leecher completed arrived either encrypted (then a key
  // was released) or as a terminal plain upload.
  EXPECT_EQ(keys + view.terminal_txs(), 20u * 32u);
  // No encrypted upload left unpaid.
  EXPECT_EQ(keys, view.direct_txs() + view.indirect_txs());
}

TEST(TChain, PieceEventsNameTheirTransaction) {
  // Leechers leaving mid-download abort uploads, so every piece kind occurs.
  // Free-riders, in the second run, swallow ciphertexts, so over both runs
  // every close state occurs too.
  obs::TxCloseCounts closes{};
  for (const double freeriders : {0.0, 0.25}) {
    SCOPED_TRACE(::testing::Message() << "free-rider share " << freeriders);
    TChainProtocol proto;
    bt::Swarm swarm(small_config(20, freeriders), proto);
    swarm.enable_obs(obs::TraceConfig{});
    for (int k = 1; k <= 4; ++k) {
      swarm.simulator().schedule_at(5.0 * k, [&swarm] {
        for (bt::PeerId id : swarm.active_peers()) {
          const bt::Peer* p = swarm.peer(id);
          if (!p->seeder && !p->have.complete()) return swarm.depart(id);
        }
      });
    }
    swarm.run();
    ASSERT_EQ(swarm.obs()->ring().dropped(), 0u);
    const auto events = swarm.obs()->events();
    const auto [sent, delivered, aborted] =
        obs::expect_piece_events_name_their_tx(events);
    EXPECT_EQ(sent, delivered + aborted);
    EXPECT_GT(delivered, 0u);
    EXPECT_GT(aborted, 0u);
    const auto run = obs::expect_tx_closes_fit_their_events(events);
    for (std::size_t i = 0; i < closes.size(); ++i) closes[i] += run[i];
  }
  for (const auto s : {obs::TxState::kAwaitKey, obs::TxState::kCompleted,
                       obs::TxState::kTerminal, obs::TxState::kDead}) {
    EXPECT_GT(closes[static_cast<std::size_t>(s)], 0u)
        << "no close in state " << static_cast<int>(s);
  }
}

TEST(TChain, FreeRidersNeverComplete) {
  TChainProtocol proto;
  bt::Swarm swarm(small_config(24, 0.25), proto);
  swarm.run();
  const auto& m = swarm.metrics();
  EXPECT_EQ(m.completion_times(F::kFreeRiders).count(), 0u);
  EXPECT_EQ(m.unfinished_count(F::kFreeRiders), 6u);
  // And compliant leechers are unharmed: all finish.
  EXPECT_EQ(m.completion_times(F::kCompliant).count(), 18u);
}

TEST(TChain, FreeRidersCompleteZeroPieces) {
  TChainProtocol proto;
  auto cfg = small_config(24, 0.25);
  cfg.freerider_whitewash = false;  // keep one record per free-rider
  bt::Swarm swarm(cfg, proto);
  swarm.run();
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->freerider) {
      // Strays can leak through rare chain terminations toward neighbors in
      // good standing, but free-riders must stay far from completion (the
      // paper's fig. 7(b): zero free-riders finish).
      EXPECT_LT(rec->pieces_downloaded, 16)
          << "free-rider " << rec->id << " got too many pieces";
      EXPECT_FALSE(rec->finished());
    }
  }
}

TEST(TChain, CollusionLetsFreeRidersProgressSlowly) {
  TChainProtocol proto;
  auto cfg = small_config(24, 0.25);
  cfg.freerider_collude = true;
  cfg.freerider_whitewash = false;
  cfg.freerider_stall_timeout = 2000.0;
  TracedSwarm run(cfg, proto);
  const bt::Swarm& swarm = run.swarm;
  // With false receipts, colluders DO decrypt some pieces (§IV-D)...
  std::int64_t colluder_pieces = 0;
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->freerider) colluder_pieces += rec->pieces_downloaded;
  }
  EXPECT_GT(colluder_pieces, 0);
  EXPECT_GT(run.counter("tchain.false_receipts"), 0u);
  // ...but compliant leechers all finish regardless.
  EXPECT_EQ(swarm.metrics().completion_times(F::kCompliant).count(), 18u);
}

TEST(TChain, ChainsFormAndTerminate) {
  TChainProtocol proto;
  bt::Swarm swarm(small_config(20), proto);
  obs::TraceConfig tc;
  tc.kind_mask = obs::kChainKinds;
  swarm.enable_obs(tc);
  swarm.run();
  ASSERT_EQ(swarm.obs()->ring().dropped(), 0u);
  const auto view = obs::ChainView::reconstruct(swarm.obs()->events());
  EXPECT_GT(view.total_created(), 0u);
  EXPECT_GT(view.mean_terminated_length(), 1.0);  // chains actually grow
  // At the end all leechers are gone: no chain can still be active.
  EXPECT_EQ(view.active_at_end(), 0u);
  EXPECT_GT(view.census().size(), 2u);
}

TEST(TChain, OpportunisticSeedingCreatesLeecherChains) {
  TChainProtocol proto;
  TracedSwarm run(small_config(30), proto);
  const auto view = run.view();
  EXPECT_GT(view.created_by_leechers(), 0u);
  EXPECT_GT(view.created_by_seeder(), 0u);
}

TEST(TChain, DisablingOpportunisticSeedingStillCompletes) {
  TChainProtocol proto;
  auto cfg = small_config(20);
  cfg.opportunistic_seeding = false;
  TracedSwarm run(cfg, proto);
  EXPECT_EQ(run.swarm.metrics().unfinished_count(F::kCompliant), 0u);
  EXPECT_EQ(run.view().created_by_leechers(), 0u);
}

TEST(TChain, IndirectOnlyAblationStillCompletes) {
  TChainProtocol proto;
  auto cfg = small_config(20);
  cfg.allow_direct_reciprocity = false;
  TracedSwarm run(cfg, proto);
  EXPECT_EQ(run.swarm.metrics().unfinished_count(F::kCompliant), 0u);
  const auto view = run.view();
  EXPECT_EQ(view.direct_txs(), 0u);
  EXPECT_GT(view.indirect_txs(), 0u);
}

TEST(TChain, DirectAndIndirectBothOccurByDefault) {
  TChainProtocol proto;
  TracedSwarm run(small_config(20), proto);
  const auto view = run.view();
  EXPECT_GT(view.direct_txs(), 0u);
  EXPECT_GT(view.indirect_txs(), 0u);
}

TEST(TChain, NewcomerBootstrapForwardsHappen) {
  TChainProtocol proto;
  TracedSwarm run(small_config(30), proto);
  EXPECT_GT(run.counter("tchain.bootstrap_forwards"), 0u);
}

TEST(TChain, SingleLeecherDegeneratesToPlainSeeding) {
  // §II-B3 extreme case: one seeder + one leecher => unencrypted uploads.
  TChainProtocol proto;
  TracedSwarm run(small_config(1), proto);
  EXPECT_EQ(run.swarm.metrics().unfinished_count(F::kCompliant), 0u);
  const auto view = run.view();
  EXPECT_EQ(view.direct_txs() + view.indirect_txs(), 0u);
  EXPECT_EQ(view.terminal_txs(), 32u);
}

TEST(TChain, TwoLeechersUseDirectReciprocity) {
  TChainProtocol proto;
  TracedSwarm run(small_config(2), proto);
  EXPECT_EQ(run.swarm.metrics().unfinished_count(F::kCompliant), 0u);
  EXPECT_GT(run.view().direct_txs(), 0u);
}

TEST(TChain, DeterministicGivenSeed) {
  auto run_once = [] {
    TChainProtocol proto;
    bt::Swarm swarm(small_config(15), proto);
    swarm.run();
    return swarm.metrics().completion_times(F::kCompliant).mean();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(TChain, DifferentSeedsDiffer) {
  auto run_with_seed = [](std::uint64_t s) {
    TChainProtocol proto;
    auto cfg = small_config(15);
    cfg.seed = s;
    bt::Swarm swarm(cfg, proto);
    swarm.run();
    return swarm.metrics().completion_times(F::kCompliant).mean();
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(TChain, FlowControlBansNonReciprocatingNeighbors) {
  TChainProtocol proto;
  auto cfg = small_config(12, 0.25);
  cfg.freerider_whitewash = false;
  cfg.freerider_large_view = false;
  bt::Swarm swarm(cfg, proto);
  swarm.run();
  // Without whitewashing, each donor uploads at most `pending_cap`
  // encrypted pieces to a non-reciprocating neighbor before banning it
  // (§II-D2), so a free-rider's total received bytes are bounded by
  // cap * (#potential donors) * piece size. 12 leechers => 9 compliant
  // donors + the seeder.
  const double bound = static_cast<double>(cfg.pending_cap) * 10.0 *
                       static_cast<double>(cfg.piece_bytes);
  std::size_t fr_n = 0;
  for (const auto* rec : swarm.metrics().all()) {
    if (rec->seeder || !rec->freerider) continue;
    ++fr_n;
    // Decrypted pieces only leak through rare terminal gifts; encrypted
    // traffic toward a free-rider is capped by flow control.
    EXPECT_LT(rec->pieces_downloaded, 8) << rec->id;
    EXPECT_LE(rec->bytes_downloaded, 2.0 * bound) << rec->id;
    EXPECT_FALSE(rec->finished());
  }
  ASSERT_GT(fr_n, 0u);
}

TEST(TChain, PendingCapRespectedDuringRun) {
  TChainProtocol proto;
  bt::Swarm swarm(small_config(10), proto);
  swarm.run();
  // All obligations settled at the end of a clean run.
  EXPECT_EQ(proto.transactions().size(), 0u);
}

}  // namespace
}  // namespace tc::protocols
