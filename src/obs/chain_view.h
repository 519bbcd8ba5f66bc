// Offline reconstruction of T-Chain triangle chains from a trace-event
// stream (src/obs/trace.h).
//
// The protocol emits kChainStart / kChainExtend / kChainBreak / kTxOpen
// events plus periodic kCensusTick markers and keeps no chain tally of its
// own; replaying the events in emission order is the simulator's one
// chain-analytics path — chain-length distributions, the active-chain
// census series behind Figure 10, cumulative seeder-vs-leecher creation
// counts and the opportunistic fraction behind Figure 11,
// direct-vs-indirect reciprocity ratios, and broken-chain causes
// attributable to sim/faults injections.
//
// Replay tolerates a wrapped (lossy) ring: events referring to chains whose
// start was overwritten are counted in orphan_events() rather than applied,
// so a truncated stream yields a truncated — never corrupted — view.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/obs/trace.h"

namespace tc::obs {

struct ChainRecord {
  std::uint64_t id = 0;
  net::PeerId initiator = net::kNoPeer;
  bool by_seeder = false;
  util::SimTime created = 0.0;
  util::SimTime terminated = -1.0;  // < 0: still active at stream end
  std::uint32_t length = 0;         // transactions appended
  ChainBreakCause cause = ChainBreakCause::kNone;

  bool broken() const { return terminated >= 0.0; }
};

// One kCensusTick replayed: the live chain population at that instant.
struct CensusPoint {
  util::SimTime t = 0.0;
  std::size_t active_chains = 0;
  std::uint64_t cumulative_seeder = 0;
  std::uint64_t cumulative_leecher = 0;
};

class ChainView {
 public:
  ChainView() = default;

  // Replays `events` (emission order) into a view.
  static ChainView reconstruct(const std::vector<TraceEvent>& events);

  // --- Chain population ----------------------------------------------------
  const std::vector<ChainRecord>& chains() const { return chains_; }
  const ChainRecord* chain(std::uint64_t id) const;

  std::uint64_t total_created() const { return created_seeder_ + created_leecher_; }
  std::uint64_t created_by_seeder() const { return created_seeder_; }
  std::uint64_t created_by_leechers() const { return created_leecher_; }
  double opportunistic_fraction() const;

  std::size_t active_at_end() const { return active_; }

  // --- Length analytics ----------------------------------------------------
  // length -> number of broken chains of that length (sorted by length).
  std::map<std::uint32_t, std::size_t> length_histogram() const;
  double mean_terminated_length() const;

  // --- Reciprocity (requires kTxOpen in the trace mask) --------------------
  std::uint64_t direct_txs() const { return direct_txs_; }
  std::uint64_t indirect_txs() const { return indirect_txs_; }
  std::uint64_t terminal_txs() const { return terminal_txs_; }

  // --- Census series (Figure 10/11) ----------------------------------------
  const std::vector<CensusPoint>& census() const { return census_; }

  // Events that referenced a chain whose start the ring had dropped.
  std::uint64_t orphan_events() const { return orphans_; }

 private:
  std::vector<ChainRecord> chains_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // id -> chains_ pos
  std::vector<CensusPoint> census_;
  std::size_t active_ = 0;
  std::uint64_t created_seeder_ = 0;
  std::uint64_t created_leecher_ = 0;
  std::uint64_t direct_txs_ = 0;
  std::uint64_t indirect_txs_ = 0;
  std::uint64_t terminal_txs_ = 0;
  std::uint64_t orphans_ = 0;
};

}  // namespace tc::obs
