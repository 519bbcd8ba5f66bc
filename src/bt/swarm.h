// Swarm orchestrator: membership, arrivals/departures, neighbor overlay,
// availability tracking with Local-Rarest-First selection, bandwidth-exact
// piece transfer, the shared attack machinery (zero-upload free-riders,
// large-view exploit, whitewashing), and metrics. Incentive logic plugs in
// through the Protocol interface (src/bt/protocol.h).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/bt/config.h"
#include "src/bt/peer.h"
#include "src/bt/protocol.h"
#include "src/net/tracker.h"
#include "src/obs/trace.h"
#include "src/sim/bandwidth.h"
#include "src/sim/faults.h"
#include "src/sim/simulator.h"
#include "src/trace/arrival.h"
#include "src/util/rng.h"

namespace tc::bt {

// How a peer leaves: gracefully (final messages sent, §II-B4 escrow
// handoff possible) or by crashing (it just vanishes).
enum class DepartKind { kGraceful, kCrash };

class Swarm {
 public:
  // `arrival_times` gives the join time of each leecher; if empty, a
  // 10-second flash crowd (paper §IV-A) is generated for
  // cfg.leecher_count leechers.
  Swarm(SwarmConfig cfg, Protocol& proto,
        std::vector<SimTime> arrival_times = {});

  // Runs to completion: all compliant leechers finished, or
  // cfg.max_sim_time reached (whichever is first).
  void run();

  // --- Accessors ------------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  util::Rng& rng() { return rng_; }
  const SwarmConfig& config() const { return cfg_; }
  analysis::SwarmMetrics& metrics() { return metrics_; }
  const analysis::SwarmMetrics& metrics() const { return metrics_; }
  std::size_t piece_count() const { return piece_count_; }
  PeerId seeder_id() const { return seeder_id_; }
  SimTime end_time() const;

  Peer* peer(PeerId id) {
    return id < slots_.size() ? slots_[id].peer.get() : nullptr;
  }
  const Peer* peer(PeerId id) const {
    return id < slots_.size() ? slots_[id].peer.get() : nullptr;
  }
  bool is_active(PeerId id) const {
    const Peer* p = peer(id);
    return p != nullptr && p->active;
  }
  std::vector<PeerId> active_peers() const;
  std::size_t active_leecher_count() const { return active_leechers_; }

  // --- Neighbor overlay ----------------------------------------------------
  // Connects a<->b respecting kMaxNeighbors (large-view free-riders accept
  // beyond the cap). Returns true if the link was created.
  bool connect(PeerId a, PeerId b);
  void disconnect(PeerId a, PeerId b);
  // Tracker round-trip: fetch a fresh list and connect to its members.
  void refresh_neighbors(PeerId p);

  // --- Interest / piece selection --------------------------------------------
  // True if `a` needs at least one completed piece of `b` that `a` neither
  // has nor has in flight.
  bool needs_from(PeerId a, PeerId b) const {
    const Peer* pa = peer(a);
    const Peer* pb = peer(b);
    if (!pa || !pb) return false;
    // requested ⊇ have, so "not requested" means truly needed.
    return pa->requested.interested_in(pb->have);
  }
  // How many of `p`'s neighbors have piece `i`.
  std::uint32_t availability(PeerId p, PieceIndex i) const;
  // Local-Rarest-First: rarest (w.r.t. chooser's neighborhood) piece that
  // `owner` has and `chooser` needs; random tie-break. nullopt if none.
  std::optional<PieceIndex> select_lrf(PeerId chooser, PeerId owner);

  // --- Transfers ----------------------------------------------------------------
  // Callback on delivery or abort (peer departed mid-transfer).
  using TransferFn =
      std::function<void(PeerId from, PeerId to, PieceIndex piece, bool ok)>;

  // Starts a piece-sized upload. Marks the piece in-flight for `to`.
  // `weight` is the flow's share weight at the uploader (PropShare). The
  // piece events' `ref` is `tx`, the transaction the upload carries, or
  // the flow id when `tx` is 0 (a protocol without transactions).
  sim::FlowId start_upload(PeerId from, PeerId to, PieceIndex piece,
                           double weight, TransferFn on_done,
                           std::uint64_t tx = 0);

  // Marks `piece` completed (decrypted / plainly received) at `to`:
  // updates counters and availability (HAVE); notifies the protocol;
  // finishes + departs the peer when the file is complete.
  void grant_piece(PeerId to, PieceIndex piece, PeerId from);

  // Control-plane message (receipt, key, reassignment): runs `fn` after
  // kControlLatency simulated seconds (plus fault jitter). Under an
  // active FaultPlan the message may be silently dropped; `on_lost`, if
  // given, then runs after the sender-side detection delay
  // (max(tx_timeout, kControlLatency)) to model timeout-based recovery.
  void send_control(std::function<void()> fn,
                    std::function<void()> on_lost = {});

  // --- Lifecycle / attacks -----------------------------------------------------
  void depart(PeerId p, DepartKind kind = DepartKind::kGraceful);
  // Identity change keeping download state; returns the new id.
  PeerId whitewash(PeerId p);

  // --- Observability (src/obs) ---------------------------------------------
  // Turns on event tracing + the metric registry for this run. Call before
  // run(). Off by default: obs() stays null and every instrumentation site
  // reduces to one pointer test (zero-overhead contract, see obs/trace.h).
  void enable_obs(const obs::TraceConfig& cfg);
  obs::Trace* obs() const { return obs_; }

 private:
  // Mints the next id and gives it an empty slot (filled by add_leecher,
  // run()'s seeder, or whitewash's move).
  PeerId allocate_id() {
    slots_.resize(next_id_ + 1);
    return next_id_++;
  }
  void join_leecher(std::size_t arrival_index, SimTime now);
  // The one leecher-construction path (arrivals and Fig 13's replacements):
  // builds the Peer and its record, its upload pipe and availability row,
  // emits kPeerJoin, announces it to the tracker and links it in.
  void add_leecher(PeerId id, double upload_kbps, bool freerider,
                   Bitfield have, SimTime now);
  // Arms the per-peer fault machinery (session clock, outage process) for
  // a freshly joined identity. No-op when the plan has them off.
  void arm_faults(PeerId id);
  void schedule_session_end(PeerId id);
  void schedule_next_outage(PeerId id);
  void begin_outage(PeerId id);
  void end_outage(PeerId id);
  // A leecher's upload rate in bytes/s: its class rate, 0 for a
  // free-rider.
  static double class_rate(const Peer& p);
  void setup_peer_links(PeerId id);
  void schedule_maintenance(PeerId id);
  void maintenance_tick(PeerId id);
  void finish_peer(PeerId id);
  // Leave path shared by depart() and whitewash(): disconnects every
  // neighbour, leaving `id`'s availability row all zero, then aborts every
  // flow to or from `id` in ascending FlowId (each flow's on_done sees
  // ok == false).
  void cut_off(PeerId id);
  void check_done();

  SwarmConfig cfg_;
  Protocol& proto_;
  sim::Simulator sim_;
  sim::BandwidthModel bw_;
  util::Rng rng_;
  sim::FaultInjector faults_;
  std::optional<trace::LogNormalSessions> sessions_;  // empty: no churn
  net::Tracker tracker_;
  analysis::SwarmMetrics metrics_;
  std::unique_ptr<obs::Trace> obs_owned_;
  obs::Trace* obs_ = nullptr;  // null unless enable_obs() was called

  std::size_t piece_count_ = 0;
  PeerId seeder_id_ = net::kNoPeer;
  PeerId next_id_ = 1;

  // Per-identity state, indexed by PeerId: ids are minted densely from 1,
  // so slot 0 stays empty and a whitewashed id's slot is emptied.
  struct Slot {
    std::unique_ptr<Peer> peer;  // heap-held: Peer* outlives slots_ growth
    // avail[i]: how many of peer's neighbours hold piece i.
    std::vector<std::uint32_t> avail;
  };
  std::vector<Slot> slots_;

  std::vector<SimTime> arrivals_;
  std::size_t arrivals_started_ = 0;
  std::size_t compliant_outstanding_ = 0;  // joined-or-pending, unfinished
  std::size_t freerider_outstanding_ = 0;
  SimTime last_freerider_progress_ = 0.0;
  SimTime last_any_progress_ = 0.0;
  std::size_t active_leechers_ = 0;
  std::vector<std::size_t> freerider_arrival_index_;
  bool done_ = false;
};

}  // namespace tc::bt
