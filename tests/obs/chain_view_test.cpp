// ChainView reconstruction: synthetic event streams with known answers,
// lossy-ring orphan handling, and the consistency of a reconstruction from
// a real T-Chain run, whose trace is the simulator's only chain record.
#include "src/obs/chain_view.h"

#include <gtest/gtest.h>

#include "src/bt/swarm.h"
#include "src/check/invariants.h"
#include "src/protocols/tchain.h"

namespace tc::obs {
namespace {

TraceEvent start(std::uint64_t chain, bool by_seeder, double t) {
  return {.t = t,
          .kind = EventKind::kChainStart,
          .aux = static_cast<std::uint8_t>(by_seeder ? 1 : 0),
          .chain = chain};
}
TraceEvent extend(std::uint64_t chain, std::uint64_t tx, double t) {
  return {.t = t, .kind = EventKind::kChainExtend, .ref = tx, .chain = chain};
}
TraceEvent brk(std::uint64_t chain, ChainBreakCause cause, double t) {
  return {.t = t,
          .kind = EventKind::kChainBreak,
          .aux = static_cast<std::uint8_t>(cause),
          .chain = chain};
}
TraceEvent tick(double t) { return {.t = t, .kind = EventKind::kCensusTick}; }

TEST(ChainView, ReplaysSyntheticStreamExactly) {
  std::vector<TraceEvent> ev;
  ev.push_back(start(1, true, 0.0));
  ev.push_back(extend(1, 101, 1.0));
  ev.push_back(extend(1, 102, 2.0));
  ev.push_back(tick(5.0));  // chain 1 active
  ev.push_back(start(2, false, 6.0));
  ev.push_back(brk(1, ChainBreakCause::kCompleted, 7.0));
  ev.push_back(tick(10.0));  // chain 2 active
  ev.push_back(brk(2, ChainBreakCause::kWatchdog, 11.0));
  ev.push_back(tick(15.0));  // none active

  const auto view = ChainView::reconstruct(ev);
  EXPECT_EQ(view.total_created(), 2u);
  EXPECT_EQ(view.created_by_seeder(), 1u);
  EXPECT_EQ(view.created_by_leechers(), 1u);
  EXPECT_DOUBLE_EQ(view.opportunistic_fraction(), 0.5);
  EXPECT_EQ(view.active_at_end(), 0u);
  EXPECT_EQ(view.orphan_events(), 0u);

  ASSERT_NE(view.chain(1), nullptr);
  EXPECT_EQ(view.chain(1)->length, 2u);
  EXPECT_TRUE(view.chain(1)->by_seeder);
  EXPECT_DOUBLE_EQ(view.chain(1)->created, 0.0);
  EXPECT_DOUBLE_EQ(view.chain(1)->terminated, 7.0);
  EXPECT_EQ(view.chain(1)->cause, ChainBreakCause::kCompleted);
  ASSERT_NE(view.chain(2), nullptr);
  EXPECT_EQ(view.chain(2)->length, 0u);

  // mean over terminated chains: (2 + 0) / 2.
  EXPECT_DOUBLE_EQ(view.mean_terminated_length(), 1.0);
  const auto lengths = view.length_histogram();
  EXPECT_EQ(lengths.at(0), 1u);
  EXPECT_EQ(lengths.at(2), 1u);

  ASSERT_EQ(view.census().size(), 3u);
  EXPECT_DOUBLE_EQ(view.census()[0].t, 5.0);
  EXPECT_EQ(view.census()[0].active_chains, 1u);
  EXPECT_EQ(view.census()[0].cumulative_seeder, 1u);
  EXPECT_EQ(view.census()[0].cumulative_leecher, 0u);
  EXPECT_EQ(view.census()[1].active_chains, 1u);
  EXPECT_EQ(view.census()[1].cumulative_leecher, 1u);
  EXPECT_EQ(view.census()[2].active_chains, 0u);
}

TEST(ChainView, TxOpenEventsSplitDirectIndirectTerminal) {
  std::vector<TraceEvent> ev;
  ev.push_back(start(1, true, 0.0));
  // Direct reciprocity: payee == donor.
  ev.push_back({.t = 1.0, .kind = EventKind::kTxOpen, .a = 5, .b = 6, .c = 5,
                .ref = 1, .chain = 1});
  // Indirect: distinct payee.
  ev.push_back({.t = 2.0, .kind = EventKind::kTxOpen, .a = 5, .b = 6, .c = 7,
                .ref = 2, .chain = 1});
  // Terminal: no payee.
  ev.push_back({.t = 3.0, .kind = EventKind::kTxOpen, .a = 5, .b = 6,
                .c = net::kNoPeer, .ref = 3, .chain = 1});
  const auto view = ChainView::reconstruct(ev);
  EXPECT_EQ(view.direct_txs(), 1u);
  EXPECT_EQ(view.indirect_txs(), 1u);
  EXPECT_EQ(view.terminal_txs(), 1u);
}

TEST(ChainView, LossyStreamYieldsOrphansNotCorruption) {
  // The ring dropped chain 1's start: its extend/break must not fabricate
  // a chain, only bump the orphan counter.
  std::vector<TraceEvent> ev;
  ev.push_back(extend(1, 101, 1.0));
  ev.push_back(brk(1, ChainBreakCause::kCompleted, 2.0));
  ev.push_back(start(2, false, 3.0));
  const auto view = ChainView::reconstruct(ev);
  EXPECT_EQ(view.orphan_events(), 2u);
  EXPECT_EQ(view.total_created(), 1u);
  EXPECT_EQ(view.chain(1), nullptr);
  EXPECT_EQ(view.active_at_end(), 1u);
}

TEST(ChainView, DoubleBreakIsIdempotent) {
  std::vector<TraceEvent> ev;
  ev.push_back(start(1, true, 0.0));
  ev.push_back(brk(1, ChainBreakCause::kCompleted, 1.0));
  ev.push_back(brk(1, ChainBreakCause::kWatchdog, 2.0));
  const auto view = ChainView::reconstruct(ev);
  EXPECT_EQ(view.active_at_end(), 0u);
  EXPECT_DOUBLE_EQ(view.chain(1)->terminated, 1.0);
  EXPECT_EQ(view.chain(1)->cause, ChainBreakCause::kCompleted);
}

// The census series behind Figures 10/11: each kCensusTick samples the
// live chain population and the cumulative creation counts.
TEST(ChainView, CensusTimeSeriesFromEventStream) {
  std::vector<TraceEvent> ev;
  ev.push_back(tick(0.0));
  ev.push_back(start(1, true, 0.5));
  ev.push_back(start(2, false, 0.6));
  ev.push_back(tick(1.0));
  ev.push_back(brk(1, ChainBreakCause::kCompleted, 1.5));
  ev.push_back(tick(2.0));

  const auto view = ChainView::reconstruct(ev);
  const auto& census = view.census();
  ASSERT_EQ(census.size(), 3u);
  EXPECT_EQ(census[0].active_chains, 0u);
  EXPECT_EQ(census[1].active_chains, 2u);
  EXPECT_EQ(census[2].active_chains, 1u);
  EXPECT_EQ(census[2].cumulative_seeder, 1u);
  EXPECT_EQ(census[2].cumulative_leecher, 1u);
  EXPECT_EQ(view.active_at_end(), 1u);
}

// A real run's trace replays into a self-consistent view: nothing lost,
// every chain started once and broken once with a cause, and the
// reciprocity split covering every opened transaction.
TEST(ChainView, ConsistentOnRealRun) {
  protocols::TChainProtocol proto;
  bt::SwarmConfig cfg;
  cfg.leecher_count = 16;
  cfg.file_bytes = util::kMiB;
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.seed = 7;
  cfg.max_sim_time = 20'000.0;
  bt::Swarm swarm(cfg, proto);
  TraceConfig tc;
  tc.kind_mask = kChainAnalysisKinds;
  swarm.enable_obs(tc);
  check::CheckerOptions copts;
  copts.pending_cap = cfg.pending_cap;
  check::Checker checker(copts);
  swarm.obs()->set_sink(&checker);
  swarm.run();
  swarm.obs()->set_sink(nullptr);

  const Trace& trace = *swarm.obs();
  ASSERT_EQ(trace.ring().dropped(), 0u) << "ring sized too small";
  const auto view = ChainView::reconstruct(trace.events());
  EXPECT_EQ(view.orphan_events(), 0u);

  EXPECT_GT(view.total_created(), 0u);
  EXPECT_EQ(view.total_created(), trace.count(EventKind::kChainStart));
  std::uint64_t lengths = 0;
  for (const auto& rec : view.chains()) {
    lengths += rec.length;
    EXPECT_TRUE(rec.broken()) << "chain " << rec.id;
    EXPECT_NE(rec.cause, ChainBreakCause::kNone) << "chain " << rec.id;
  }
  EXPECT_EQ(lengths, trace.count(EventKind::kChainExtend));
  EXPECT_EQ(view.active_at_end(), 0u);

  // Every encrypted transaction is direct or indirect; terminal uploads are
  // neither. The split must cover all opened transactions.
  EXPECT_EQ(view.direct_txs() + view.indirect_txs() + view.terminal_txs(),
            trace.count(EventKind::kTxOpen));

  const auto& report = checker.finish();
  EXPECT_EQ(report.by_class[static_cast<std::size_t>(
                check::Invariant::kChainShape)],
            0u);
}

}  // namespace
}  // namespace tc::obs
