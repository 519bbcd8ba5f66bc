// Fault-injection resilience: T-Chain under control-message loss, abrupt
// crashes, graceful churn and upload outages — plus the determinism guard
// (faults draw only from the seeded fault stream, never wall clock) and
// focused coverage of the §II-B4 escrow path. Protocol counts come from the
// run's trace, which never perturbs the run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/analysis/metrics.h"
#include "src/bt/swarm.h"
#include "src/obs/chain_view.h"
#include "src/protocols/tchain.h"

namespace tc::protocols {
namespace {

using F = analysis::SwarmMetrics::PeerFilter;

bt::SwarmConfig faulty_cfg(std::uint64_t seed) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = 24;
  cfg.file_bytes = 2 * util::kMiB;
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.seed = seed;
  cfg.max_sim_time = 20'000.0;
  cfg.tx_timeout = 15.0;
  cfg.faults.control_loss = 0.10;
  cfg.faults.control_jitter = 0.02;
  cfg.faults.session_kind = sim::FaultPlan::SessionKind::kLogNormal;
  cfg.faults.mean_session = 150.0;
  cfg.faults.session_sigma = 1.0;
  cfg.faults.crash_fraction = 0.5;
  cfg.faults.outage_rate = 0.002;
  cfg.faults.outage_mean_duration = 10.0;
  return cfg;
}

// Serializes everything a run produced, bit-exactly (hexfloat), so two
// runs can be compared byte for byte. Needs tracing on.
std::string fingerprint(const bt::Swarm& swarm) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto* r : swarm.metrics().all()) {
    os << r->id << ' ' << r->seeder << ' ' << r->freerider << ' '
       << r->join_time << ' ' << r->finish_time << ' ' << r->depart_time
       << ' ' << r->pieces_uploaded << ' ' << r->pieces_downloaded << ' '
       << r->bytes_uploaded << ' ' << r->bytes_downloaded << ' '
       << r->whitewash_count << '\n';
  }
  const auto& rs = swarm.metrics().resilience();
  os << "crashes=" << rs.crashes << " churn=" << rs.churn_departures
     << " ctl=" << rs.control_sent << '/' << rs.control_dropped
     << " outages=" << rs.upload_outages
     << " timeouts=" << rs.transactions_timed_out
     << " keys_lost=" << rs.keys_lost
     << " escrow_recovered=" << rs.keys_escrow_recovered
     << " refetches=" << rs.piece_refetches << '\n';
  for (const auto& [key, value] : swarm.obs()->snapshot()) {
    os << key << '=' << value << '\n';
  }
  os << "end=" << swarm.end_time() << '\n';
  return os.str();
}

std::string run_fingerprint(const bt::SwarmConfig& cfg) {
  TChainProtocol proto;
  bt::Swarm swarm(cfg, proto);
  swarm.enable_obs(obs::TraceConfig{});
  swarm.run();
  return fingerprint(swarm);
}

TEST(TChainResilience, SameSeedSamePlanIsByteIdentical) {
  for (std::uint64_t seed : {1ull, 9ull}) {
    const auto cfg = faulty_cfg(seed);
    EXPECT_EQ(run_fingerprint(cfg), run_fingerprint(cfg)) << "seed " << seed;
  }
}

TEST(TChainResilience, DifferentPlansDiverge) {
  const auto base = faulty_cfg(3);
  auto heavier = base;
  heavier.faults.control_loss = 0.25;
  EXPECT_NE(run_fingerprint(base), run_fingerprint(heavier));
}

TEST(TChainResilience, LossAndCrashesStillComplete) {
  // Acceptance: 10% control-message loss plus mid-download crashes — every
  // leecher that stayed finishes, nothing hangs, no pending-count leaks.
  std::uint64_t total_crashes = 0, total_timeouts = 0, total_refetch = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TChainProtocol proto;
    auto cfg = faulty_cfg(seed);
    cfg.faults.crash_fraction = 1.0;  // every churn exit is a crash
    bt::Swarm swarm(cfg, proto);
    swarm.enable_obs(obs::TraceConfig{});
    swarm.run();
    const obs::Trace& trace = *swarm.obs();

    // No survivor is left unfinished.
    std::size_t stayed_unfinished = 0;
    for (const auto* rec : swarm.metrics().all()) {
      if (rec->seeder) continue;
      if (rec->depart_time >= 0 && !rec->finished()) continue;  // churned out
      if (!rec->finished()) ++stayed_unfinished;
    }
    EXPECT_EQ(stayed_unfinished, 0u) << "seed " << seed;
    // No leaked transactions or chains.
    EXPECT_EQ(proto.transactions().size(), 0u) << "seed " << seed;
    ASSERT_EQ(trace.ring().dropped(), 0u) << "seed " << seed;
    EXPECT_EQ(obs::ChainView::reconstruct(trace.events()).active_at_end(), 0u)
        << "seed " << seed;
    // The run actually suffered: faults fired and were absorbed.
    const auto& rs = swarm.metrics().resilience();
    EXPECT_GT(rs.control_dropped, 0u) << "seed " << seed;
    total_crashes += rs.crashes;
    total_timeouts += trace.count(obs::EventKind::kTxTimeout) +
                      trace.count(obs::EventKind::kTxRetry);
    total_refetch += rs.piece_refetches;
  }
  EXPECT_GT(total_crashes, 0u);
  EXPECT_GT(total_timeouts, 0u);
  EXPECT_GT(total_refetch, 0u);
}

// Finds a live transaction in AwaitKey whose donor could hand its key to a
// distinct, active payee — i.e. one where §II-B4 escrow WOULD happen on a
// graceful exit. Returns 0 if none exists right now.
core::TxId find_escrowable_tx(bt::Swarm& swarm, const TChainProtocol& proto) {
  for (bt::PeerId id : swarm.active_peers()) {
    const bt::Peer* p = swarm.peer(id);
    if (p == nullptr || p->seeder) continue;
    for (core::TxId txid : proto.transactions().involving(id)) {
      const core::Transaction* tx = proto.transactions().get(txid);
      if (tx == nullptr || tx->state != core::TxState::kAwaitKey) continue;
      if (tx->donor != id || tx->key_escrowed) continue;
      if (tx->payee == net::kNoPeer || tx->payee == id) continue;
      if (!swarm.is_active(tx->payee)) continue;
      return txid;
    }
  }
  return 0;
}

TEST(TChainResilience, CrashForfeitsEscrowGracefulGrantsIt) {
  // The same situation — a donor with a key owed and a live payee to hold
  // it — settles opposite ways depending on HOW the donor leaves: a crash
  // loses the key outright, a graceful departure escrows it (§II-B4).
  bool crash_probed = false, graceful_probed = false;
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    for (const bool crash : {true, false}) {
      TChainProtocol proto;
      bt::SwarmConfig cfg;
      cfg.leecher_count = 24;
      cfg.file_bytes = 2 * util::kMiB;
      cfg.piece_bytes = 64 * util::kKiB;
      cfg.seed = seed;
      cfg.max_sim_time = 20'000.0;
      bt::Swarm swarm(cfg, proto);
      swarm.enable_obs(obs::TraceConfig{});
      const obs::Trace& trace = *swarm.obs();
      bool probed = false;
      for (int k = 1; k <= 20 ; ++k) {
        swarm.simulator().schedule_at(
            2.0 * k, [&swarm, &proto, &trace, &probed, crash] {
              if (probed) return;
              const core::TxId txid = find_escrowable_tx(swarm, proto);
              if (txid == 0) return;
              const core::Transaction* tx = proto.transactions().get(txid);
              const bt::PeerId donor = tx->donor;
              const auto escrowed_before =
                  trace.count(obs::EventKind::kKeyEscrowed);
              const auto lost_before = trace.count(obs::EventKind::kKeyLost);
              swarm.depart(donor, crash ? bt::DepartKind::kCrash
                                        : bt::DepartKind::kGraceful);
              if (crash) {
                // No goodbye: the key dies with the donor.
                EXPECT_EQ(trace.count(obs::EventKind::kKeyEscrowed),
                          escrowed_before);
                EXPECT_GT(trace.count(obs::EventKind::kKeyLost), lost_before);
                EXPECT_EQ(proto.transactions().get(txid), nullptr);
              } else {
                // Handoff: the payee now holds the key.
                EXPECT_GT(trace.count(obs::EventKind::kKeyEscrowed),
                          escrowed_before);
                const core::Transaction* still = proto.transactions().get(txid);
                ASSERT_NE(still, nullptr);
                EXPECT_TRUE(still->key_escrowed);
              }
              probed = true;
            });
      }
      swarm.run();
      EXPECT_EQ(proto.transactions().size(), 0u)
          << "seed " << seed << " crash=" << crash;
      (crash ? crash_probed : graceful_probed) |= probed;
    }
  }
  EXPECT_TRUE(crash_probed) << "no crash scenario ever materialized";
  EXPECT_TRUE(graceful_probed) << "no graceful scenario ever materialized";
}

TEST(TChainResilience, OutagesAloneDoNotLoseData) {
  // Transient upload outages stall flows but must not corrupt anything:
  // everyone still finishes, and outages were actually injected.
  TChainProtocol proto;
  bt::SwarmConfig cfg;
  cfg.leecher_count = 16;
  cfg.file_bytes = util::kMiB;
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.seed = 8;
  cfg.max_sim_time = 20'000.0;
  cfg.faults.outage_rate = 0.01;
  cfg.faults.outage_mean_duration = 5.0;
  bt::Swarm swarm(cfg, proto);
  swarm.run();
  EXPECT_GT(swarm.metrics().resilience().upload_outages, 0u);
  EXPECT_EQ(swarm.metrics().unfinished_count(F::kCompliant), 0u);
  EXPECT_EQ(proto.transactions().size(), 0u);
}

// --- §II-B4 escrow path (satellite: previously untested) -------------------

TEST(TChainEscrow, GracefulDonorDepartureEscrowsAndPayeeReleases) {
  // Depart the most-complete leechers (the busiest donors) gracefully and
  // often: their AwaitKey transactions must escrow with payees, and at
  // least some escrowed keys must be released on reciprocation.
  std::uint64_t escrowed = 0, released = 0;
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    TChainProtocol proto;
    bt::SwarmConfig cfg;
    cfg.leecher_count = 30;
    cfg.file_bytes = 2 * util::kMiB;
    cfg.piece_bytes = 64 * util::kKiB;
    cfg.seed = seed;
    cfg.max_sim_time = 20'000.0;
    bt::Swarm swarm(cfg, proto);
    swarm.enable_obs(obs::TraceConfig{});
    for (int k = 1; k <= 12; ++k) {
      swarm.simulator().schedule_at(4.0 * k, [&swarm] {
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
    const obs::Trace& trace = *swarm.obs();
    const std::uint64_t run_escrowed =
        trace.count(obs::EventKind::kKeyEscrowed);
    const std::uint64_t run_released =
        swarm.metrics().resilience().keys_escrow_recovered;
    escrowed += run_escrowed;
    released += run_released;
    // Released keys are a subset of escrowed ones, and both count as
    // regular key releases too.
    EXPECT_LE(run_released, run_escrowed) << "seed " << seed;
    EXPECT_LE(run_released, trace.count(obs::EventKind::kKeyDelivered))
        << "seed " << seed;
    EXPECT_EQ(proto.transactions().size(), 0u) << "seed " << seed;
  }
  EXPECT_GT(escrowed, 0u);
  EXPECT_GT(released, 0u) << "no payee ever released an escrowed key";
}

}  // namespace
}  // namespace tc::protocols
