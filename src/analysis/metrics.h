// Per-peer measurement records and the aggregate statistics the paper's
// figures report: average download completion time, uplink utilization,
// fairness factors (downloaded/uploaded pieces) and throughput. Per-piece
// timelines (Figure 5) are read from the run's trace, not kept here.
//
// A "logical peer" keeps one record across whitewashing identity changes,
// so a whitewashing free-rider's completion time spans its whole life.
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/stats.h"
#include "src/util/units.h"

namespace tc::analysis {

using util::SimTime;

struct PeerRecord {
  std::uint32_t id = 0;          // current identity
  bool seeder = false;
  bool freerider = false;
  bool colluder = false;
  double upload_kbps = 0.0;
  SimTime join_time = 0.0;
  SimTime finish_time = -1.0;    // < 0: never finished
  SimTime depart_time = -1.0;    // < 0: still present at end
  std::int64_t pieces_uploaded = 0;
  std::int64_t pieces_downloaded = 0;
  double bytes_uploaded = 0.0;
  double bytes_downloaded = 0.0;
  int whitewash_count = 0;

  bool finished() const { return finish_time >= 0.0; }
  double completion_time() const { return finish_time - join_time; }
};

// Aggregate resilience counters: how much injected failure a run absorbed
// (src/sim/faults.*) and what recovering from it cost. Swarm-level fields
// are filled by the swarm; transaction-level ones by the protocol.
struct ResilienceStats {
  // Injected failure events.
  std::uint64_t crashes = 0;            // abrupt exits, no escrow handoff
  std::uint64_t churn_departures = 0;   // graceful mid-download leaves
  std::uint64_t control_sent = 0;       // control-plane messages attempted
  std::uint64_t control_dropped = 0;    // ... of which silently lost
  std::uint64_t upload_outages = 0;     // transient zero-capacity intervals
  // Recovery outcomes.
  std::uint64_t transactions_timed_out = 0;  // watchdog gave up on a tx
  std::uint64_t keys_lost = 0;               // ciphertext abandoned, no key
  std::uint64_t keys_escrow_recovered = 0;   // escrowed key reached requestor
  std::uint64_t piece_refetches = 0;         // piece re-requested elsewhere
};

class SwarmMetrics {
 public:
  // Creates the record on first touch.
  PeerRecord& record(std::uint32_t id);
  const PeerRecord* find(std::uint32_t id) const;

  // Whitewash: the logical peer previously known as old_id continues as
  // new_id (same record).
  void rekey(std::uint32_t old_id, std::uint32_t new_id);

  std::vector<const PeerRecord*> all() const;

  ResilienceStats& resilience() { return resilience_; }
  const ResilienceStats& resilience() const { return resilience_; }

  // --- Aggregates ---------------------------------------------------------
  enum class PeerFilter { kCompliant, kFreeRiders, kAll };

  // Completion times of finished leechers matching the filter.
  util::Distribution completion_times(PeerFilter f) const;

  // Leechers matching the filter that never finished.
  std::size_t unfinished_count(PeerFilter f) const;

  // Mean uplink utilization (0..1) over each leecher's residence time;
  // `end_time` bounds residence for peers still present.
  double mean_uplink_utilization(PeerFilter f, SimTime end_time) const;

  // Fairness factor per finished compliant leecher: pieces downloaded /
  // pieces uploaded (peers that uploaded nothing map to +inf, which the
  // caller's CDF clamps). `last_n` keeps only the last-n finishers
  // (paper: last 500); 0 = everyone.
  util::Distribution fairness_factors(std::size_t last_n) const;

  // Mean download throughput (bytes/s) of compliant leechers over their
  // residence in [0, horizon] (Figure 13).
  double mean_download_throughput(SimTime horizon) const;

 private:
  bool matches(const PeerRecord& r, PeerFilter f) const;

  // Position + 1 of `id`'s record in records_, 0 if it has none.
  std::uint32_t slot_of(std::uint32_t id) const {
    return id < index_.size() ? index_[id] : 0;
  }

  std::vector<std::uint32_t> index_;  // id -> record position + 1
  std::vector<PeerRecord> records_;
  ResilienceStats resilience_;
};

// Kumar/Ross-style lower bound on mean completion time for a homogeneous
// flash crowd (the "Optimal" line of Figure 3):
//   T* = max( F/u_seed , N*F / (u_seed + sum_i u_i) )
// with downloads unconstrained.
double optimal_completion_time(double file_bytes, double seed_bytes_per_sec,
                               const std::vector<double>& leecher_bytes_per_sec);

}  // namespace tc::analysis
