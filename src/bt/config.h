// Swarm configuration. Defaults mirror the paper's setup (§IV-A), except
// file size, which benches scale down by default for single-core runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/core/policy.h"
#include "src/sim/faults.h"
#include "src/util/units.h"

namespace tc::bt {

// Fixed simulator parameters, no experiment varies them (DESIGN.md §6b):
// the paper's setup (§IV-A) plus the repo's own delays and valve.
inline constexpr double kSeederUploadKbps = 6000.0;
// Leecher classes, slowest first, assigned round-robin in arrival order.
inline constexpr std::array<double, 5> kLeecherUploadKbps = {400, 600, 800,
                                                             1000, 1200};
// Overlay: a peer keeps at most kMaxNeighbors and asks the tracker for more
// (net::kTrackerListSize per list) while it has fewer than kMinNeighbors.
inline constexpr std::size_t kMaxNeighbors = 55;
inline constexpr std::size_t kMinNeighbors = 30;
inline constexpr double kControlLatency = 0.05;  // s, HAVE/receipt/key messages
// Choking timers, and the regular unchokes (k in the paper's §II-A).
inline constexpr double kRechokePeriod = 10.0;
inline constexpr double kOptimisticPeriod = 30.0;
inline constexpr std::size_t kUnchokeSlots = 4;
// Safety valve: if NO leecher completes a piece for this long after all
// arrivals happened, the run is over (remaining peers recorded as
// unfinished) instead of burning simulated time to max_sim_time.
inline constexpr double kGlobalStallTimeout = 10'000.0;

struct SwarmConfig {
  // --- Content ------------------------------------------------------------
  util::ByteCount file_bytes = 16 * util::kMiB;   // paper: 128 MiB
  util::ByteCount piece_bytes = 64 * util::kKiB;  // T-Chain/FairTorrent: 64 KiB;
                                                  // BitTorrent/PropShare: 256 KiB

  // --- Population -----------------------------------------------------------
  std::size_t leecher_count = 100;
  double freerider_fraction = 0.0;

  // --- Attack model ------------------------------------------------------------
  bool freerider_large_view = true;
  bool freerider_whitewash = true;
  bool freerider_collude = false;  // T-Chain false-receipt collusion

  // --- T-Chain knobs ------------------------------------------------------------
  int pending_cap = core::kPendingCap;  // flow-control k (§II-D2)
  bool opportunistic_seeding = true;    // §II-D3
  bool allow_direct_reciprocity = true; // ablation: force indirect payees

  // --- Fault injection / robustness -------------------------------------------
  // All faults default OFF; a default FaultPlan leaves every run
  // bit-identical to a fault-free build (the injector is never consulted).
  sim::FaultPlan faults;
  // Per-transaction watchdog (0 = disabled): a T-Chain exchange stuck
  // awaiting its key or reciprocation for this long is re-kicked up to
  // core::kTxMaxRetries times, then torn down so the piece can be
  // re-fetched from another donor. Enable alongside faults; without it a
  // lost control message waits for the coarse kGlobalStallTimeout valve.
  double tx_timeout = 0.0;

  // --- Scenario variants ------------------------------------------------------
  // Fig 13: a finished leecher is replaced by a fresh newcomer immediately.
  bool replace_on_finish = false;
  // Fig 6(b): fraction of pieces each leecher starts with.
  double initial_piece_fraction = 0.0;

  // --- Run control ----------------------------------------------------------
  std::uint64_t seed = 1;
  double max_sim_time = 500'000.0;
  // After compliant leechers finish, keep running so free-riders can limp
  // to completion off the seeder (the paper measures their completion
  // times); give up once no free-rider completes a piece for this long.
  bool wait_for_freeriders = true;
  double freerider_stall_timeout = 1500.0;

  std::size_t piece_count() const {
    return static_cast<std::size_t>((file_bytes + piece_bytes - 1) / piece_bytes);
  }
};

}  // namespace tc::bt
