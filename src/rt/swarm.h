// One-call localhost swarm: spins up a TrackerService plus N PeerNodes
// (peer 1 seeds, the rest leech) on a single Reactor, runs the live
// T-Chain protocol over real loopback sockets until every leecher holds
// the full file and every donor transaction has settled (or a wall-clock
// deadline expires), and returns per-peer completion times together with
// the invariant checker's verdict over the run's full trace. The checker
// is attached as a live sink, so the verdict is sound even if the trace
// ring (obs::TraceConfig's default capacity) wraps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/net/peer_id.h"
#include "src/obs/trace.h"
#include "src/rt/peer_node.h"

namespace tc::rt {

struct SwarmOptions {
  std::size_t peers = 16;  // total nodes; node 1 is the seeder
  std::uint32_t piece_count = 32;
  std::uint32_t piece_bytes = 16 * 1024;
  std::uint64_t seed = 1;
  double watchdog_seconds = PeerNode::Options{}.watchdog_seconds;
  double deadline_seconds = 30.0;
};

struct PeerStat {
  net::PeerId id = net::kNoPeer;
  bool seeder = false;
  bool complete = false;
  double finish_seconds = -1.0;  // -1 if never finished
};

struct SwarmResult {
  bool all_complete = false;
  // Reactor seconds at stop: the settlement that closed the last donor
  // transaction after the last leecher finished, or the deadline.
  double wall_seconds = 0.0;
  std::vector<PeerStat> peers;
  check::CheckReport check;
  std::vector<obs::TraceEvent> events;  // ring snapshot (may have wrapped)
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

// Blocks until the swarm completes and settles, or the deadline fires.
// Settlement is driven by protocol messages (payee re-selection when a
// payee finishes, receipts, key releases); if a transaction is still open
// 2 s after the last leecher finished, the run stops anyway and the
// checker reports the open escrow as a warning. Throws std::runtime_error
// on socket setup failure.
SwarmResult run_local_swarm(const SwarmOptions& opts);

}  // namespace tc::rt
