#include "src/bt/swarm.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace tc::bt {
namespace {

bool erase_neighbor(Peer& p, PeerId x) {
  const auto it = std::find(p.neighbors.begin(), p.neighbors.end(), x);
  if (it == p.neighbors.end()) return false;
  p.neighbors.erase(it);
  return true;
}

}  // namespace

Swarm::Swarm(SwarmConfig cfg, Protocol& proto, std::vector<SimTime> arrival_times)
    : cfg_(std::move(cfg)),
      proto_(proto),
      bw_(sim_),
      rng_(cfg_.seed),
      faults_(cfg_.faults, cfg_.seed),
      piece_count_(cfg_.piece_count()) {
  if (piece_count_ == 0) throw std::invalid_argument("empty file");
  if (cfg_.faults.churn()) {
    sessions_.emplace(cfg_.faults.mean_session, cfg_.faults.session_sigma);
  }
  arrivals_ = std::move(arrival_times);
  if (arrivals_.empty()) {
    arrivals_ = trace::flash_crowd_arrivals(cfg_.leecher_count, rng_);
  }
  if (arrivals_.empty()) throw std::invalid_argument("no leechers");
  cfg_.leecher_count = arrivals_.size();

  // Exactly round(fraction * N) free-riders, spread uniformly.
  const auto fr_count = static_cast<std::size_t>(
      cfg_.freerider_fraction * static_cast<double>(arrivals_.size()) + 0.5);
  freerider_arrival_index_ = rng_.sample_indices(arrivals_.size(), fr_count);
  std::sort(freerider_arrival_index_.begin(), freerider_arrival_index_.end());

  proto_.attach(*this);
}

SimTime Swarm::end_time() const {
  return std::min(sim_.now(), cfg_.max_sim_time);
}

void Swarm::enable_obs(const obs::TraceConfig& cfg) {
  obs_owned_ = std::make_unique<obs::Trace>(cfg);
  obs_ = obs_owned_.get();
  faults_.set_trace(obs_, &sim_);
}

std::vector<PeerId> Swarm::active_peers() const {
  std::vector<PeerId> out;  // ascending: deterministic for RNG consumers
  out.reserve(active_leechers_ + 1);
  for (PeerId id = 0; id < slots_.size(); ++id) {
    const Peer* p = slots_[id].peer.get();
    if (p != nullptr && p->active) out.push_back(id);
  }
  return out;
}

bool Swarm::connect(PeerId a, PeerId b) {
  if (a == b) return false;
  Peer* pa = peer(a);
  Peer* pb = peer(b);
  if (!pa || !pb || !pa->active || !pb->active) return false;

  const auto over_cap = [&](const Peer& p) {
    if (p.neighbors.size() < kMaxNeighbors) return false;
    // Large-view free-riders accept (and hold) unbounded neighbor sets.
    return !(p.freerider && cfg_.freerider_large_view);
  };
  if (over_cap(*pa) || over_cap(*pb)) return false;
  // Links are symmetric, so scan the shorter list: a large-view free-rider
  // holds a few hundred neighbours.
  if (pa->neighbors.size() <= pb->neighbors.size() ? pa->is_neighbor(b)
                                                   : pb->is_neighbor(a)) {
    return false;
  }

  pa->neighbors.push_back(b);
  pb->neighbors.push_back(a);
  pb->have.add_to(slots_[a].avail, +1);
  pa->have.add_to(slots_[b].avail, +1);
  proto_.on_neighbor_added(a, b);
  return true;
}

void Swarm::disconnect(PeerId a, PeerId b) {
  Peer* pa = peer(a);
  Peer* pb = peer(b);
  if (!pa || !pb) return;
  if (!erase_neighbor(*pa, b)) return;
  erase_neighbor(*pb, a);
  pb->have.add_to(slots_[a].avail, -1);
  pa->have.add_to(slots_[b].avail, -1);
  proto_.on_neighbor_removed(a, b);
}

void Swarm::refresh_neighbors(PeerId p) {
  if (!is_active(p)) return;
  for (PeerId n : tracker_.neighbor_list(p, rng_)) {
    if (is_active(n)) connect(p, n);
  }
}

std::uint32_t Swarm::availability(PeerId p, PieceIndex i) const {
  if (p >= slots_.size()) return 0;
  const auto& av = slots_[p].avail;
  return i < av.size() ? av[i] : 0;
}

std::optional<PieceIndex> Swarm::select_lrf(PeerId chooser, PeerId owner) {
  const Peer* pc = peer(chooser);
  const Peer* po = peer(owner);
  if (!pc || !po) return std::nullopt;
  const auto& av = slots_[chooser].avail;
  // Candidates are the pieces of `owner` that `chooser` needs, walked in
  // place in ascending order.
  std::optional<PieceIndex> best;
  std::uint32_t best_avail = 0;
  std::size_t ties = 0;
  pc->requested.for_each_missing_from(po->have, [&](PieceIndex c) {
    if (!best || av[c] < best_avail) {
      best = c;
      best_avail = av[c];
      ties = 1;
    } else if (av[c] == best_avail) {
      // Reservoir: uniform among rarest.
      ++ties;
      if (rng_.index(ties) == 0) best = c;
    }
  });
  return best;
}

sim::FlowId Swarm::start_upload(PeerId from, PeerId to, PieceIndex piece,
                                double weight, TransferFn on_done,
                                std::uint64_t tx) {
  Peer* src = peer(from);
  Peer* dst = peer(to);
  if (!src || !dst || !src->active || !dst->active)
    throw std::logic_error("start_upload: inactive endpoint");
  if (piece >= piece_count_) throw std::out_of_range("start_upload: bad piece");
  dst->requested.set(piece);

  const sim::FlowId id = bw_.start_flow(
      from, to, static_cast<double>(cfg_.piece_bytes),
      [this, from, to, piece, tx, on_done = std::move(on_done)](
          sim::FlowId fid, bool ok) {
        if (ok) {
          auto& up = metrics_.record(from);
          up.pieces_uploaded += 1;
          up.bytes_uploaded += static_cast<double>(cfg_.piece_bytes);
          metrics_.record(to).bytes_downloaded +=
              static_cast<double>(cfg_.piece_bytes);
        } else if (Peer* dst = peer(to); dst && !dst->have.get(piece)) {
          dst->requested.clear(piece);  // allow a re-fetch elsewhere
        }
        if (obs_ != nullptr) {
          obs_->emit({.t = sim_.now(),
                      .kind = ok ? obs::EventKind::kPieceDelivered
                                 : obs::EventKind::kPieceAborted,
                      .piece = piece,
                      .a = from,
                      .b = to,
                      .ref = tx != 0 ? tx : fid});
        }
        if (on_done) on_done(from, to, piece, ok);
      },
      weight);
  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = obs::EventKind::kPieceSent,
                .piece = piece,
                .a = from,
                .b = to,
                .ref = tx != 0 ? tx : id});
  }
  return id;
}

void Swarm::grant_piece(PeerId to, PieceIndex piece, PeerId from) {
  Peer* t = peer(to);
  if (!t || piece >= piece_count_) return;
  if (t->have.get(piece)) return;  // duplicate delivery guard
  t->have.set(piece);
  t->requested.set(piece);

  auto& rec = metrics_.record(to);
  rec.pieces_downloaded += 1;
  last_any_progress_ = sim_.now();
  if (t->freerider) last_freerider_progress_ = sim_.now();
  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = obs::EventKind::kPieceGranted,
                .piece = piece,
                .a = to,
                .b = from});
  }

  // HAVE broadcast: neighbors' availability counters pick up the piece.
  for (PeerId n : t->neighbors) ++slots_[n].avail[piece];

  proto_.on_piece_complete(to, piece, from);

  if (t->have.complete()) {
    const PeerId id = to;
    sim_.schedule_in(0.0, [this, id] { finish_peer(id); });
  } else if (t->freerider && cfg_.freerider_whitewash && !t->seeder) {
    // Whitewash as soon as a (free) piece is banked (§IV-C).
    const PeerId id = to;
    sim_.schedule_in(0.01, [this, id] {
      if (is_active(id)) whitewash(id);
    });
  }
}

void Swarm::send_control(std::function<void()> fn,
                         std::function<void()> on_lost) {
  ++metrics_.resilience().control_sent;
  if (faults_.plan().control_faults()) {
    if (faults_.drop_control()) {
      ++metrics_.resilience().control_dropped;
      if (on_lost) {
        const double wait = std::max(cfg_.tx_timeout, kControlLatency);
        sim_.schedule_in(wait, std::move(on_lost));
      }
      return;
    }
    sim_.schedule_in(kControlLatency + faults_.control_delay(),
                     std::move(fn));
    return;
  }
  if (!control_lane_) control_lane_ = sim_.lane(kControlLatency);
  sim_.schedule_in(*control_lane_, std::move(fn));
}

void Swarm::arm_faults(PeerId id) {
  const Peer* p = peer(id);
  if (p == nullptr || p->seeder) return;
  if (sessions_) schedule_session_end(id);
  if (faults_.plan().outages()) schedule_next_outage(id);
}

void Swarm::schedule_session_end(PeerId id) {
  // Draws happen at scheduling time so the fault stream's consumption
  // order is a pure function of join order (determinism guard).
  const SimTime dur = sessions_->duration(faults_.rng());
  const bool crash = faults_.crash_on_exit();
  sim_.schedule_in(dur, [this, id, crash] {
    const Peer* p = peer(id);
    if (p == nullptr || !p->active || p->seeder) return;
    if (p->have.complete()) return;  // finishing departs on its own
    if (crash) {
      ++metrics_.resilience().crashes;
    } else {
      ++metrics_.resilience().churn_departures;
    }
    depart(id, crash ? DepartKind::kCrash : DepartKind::kGraceful);
  });
}

void Swarm::schedule_next_outage(PeerId id) {
  const SimTime gap = faults_.outage_gap();
  sim_.schedule_in(gap, [this, id] { begin_outage(id); });
}

void Swarm::begin_outage(PeerId id) {
  const Peer* p = peer(id);
  if (p == nullptr || !p->active) return;
  if (bw_.capacity(id) <= 0.0) {
    // Nothing to darken (free-rider pipe) — keep the process alive anyway.
    schedule_next_outage(id);
    return;
  }
  ++metrics_.resilience().upload_outages;
  bw_.set_capacity(id, 0.0);
  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = obs::EventKind::kFaultOutageBegin,
                .a = id});
  }
  const SimTime dur = faults_.outage_duration();
  sim_.schedule_in(dur, [this, id] { end_outage(id); });
}

void Swarm::end_outage(PeerId id) {
  const Peer* p = peer(id);
  if (p == nullptr || !p->active) return;
  bw_.set_capacity(id, class_rate(*p));
  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = obs::EventKind::kFaultOutageEnd,
                .a = id});
  }
  schedule_next_outage(id);
}

double Swarm::class_rate(const Peer& p) {
  return p.freerider ? 0.0 : util::kbps_to_bytes_per_sec(p.upload_kbps);
}

void Swarm::finish_peer(PeerId id) {
  Peer* p = peer(id);
  if (!p || !p->active || p->seeder) return;
  metrics_.record(id).finish_time = sim_.now();
  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(), .kind = obs::EventKind::kPeerFinish, .a = id});
  }
  const bool compliant = !p->freerider;
  const bool replace = cfg_.replace_on_finish && sim_.now() < cfg_.max_sim_time;
  const double kbps = p->upload_kbps;
  depart(id);
  if (compliant) {
    assert(compliant_outstanding_ > 0);
    --compliant_outstanding_;
    // Start the free-rider stall clock only once compliant work is done.
    if (compliant_outstanding_ == 0)
      last_freerider_progress_ = std::max(last_freerider_progress_, sim_.now());
  } else if (freerider_outstanding_ > 0) {
    --freerider_outstanding_;
  }
  if (replace) {
    // Figure 13's churn model: an identical newcomer takes the slot.
    if (compliant) ++compliant_outstanding_;
    add_leecher(allocate_id(), kbps, !compliant, Bitfield(piece_count_),
                sim_.now());
  }
  check_done();
}

void Swarm::cut_off(PeerId id) {
  Peer& leaver = *slots_[id].peer;
  std::vector<PeerId> nbrs;
  nbrs.swap(leaver.neighbors);
  // Subtracting every neighbour's have set would leave the leaver's row
  // all zero; clear it once instead.
  std::fill(slots_[id].avail.begin(), slots_[id].avail.end(), 0);
  for (PeerId n : nbrs) {
    Slot& s = slots_[n];
    erase_neighbor(*s.peer, id);
    leaver.have.add_to(s.avail, -1);
    proto_.on_neighbor_removed(id, n);
  }

  // Each abort callback may draw from rng_ or start flows, so the order is
  // observable output: ascending FlowId, set by the model.
  bw_.abort_flows(id);
}

void Swarm::depart(PeerId id, DepartKind kind) {
  Peer* p = peer(id);
  if (!p || !p->active) return;
  p->active = false;
  metrics_.record(id).depart_time = sim_.now();

  // A mid-download departure (churn, chaos testing) leaves the file
  // unfinished; release its completion slot so the run can end without
  // waiting for the stall valve. Finish-departures decrement in
  // finish_peer, after this call, once the record is marked finished.
  if (!p->seeder && !p->have.complete()) {
    if (!p->freerider) {
      if (compliant_outstanding_ > 0) --compliant_outstanding_;
      if (compliant_outstanding_ == 0)
        last_freerider_progress_ = std::max(last_freerider_progress_, sim_.now());
    } else if (freerider_outstanding_ > 0) {
      --freerider_outstanding_;
    }
  }

  cut_off(id);

  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = kind == DepartKind::kCrash
                            ? obs::EventKind::kPeerCrash
                            : obs::EventKind::kPeerDepart,
                .a = id});
  }
  if (kind == DepartKind::kCrash) {
    proto_.on_peer_crash(id);
  } else {
    proto_.on_peer_depart(id);
  }
  tracker_.depart(id);
  if (!p->seeder && active_leechers_ > 0) --active_leechers_;
  check_done();
}

PeerId Swarm::whitewash(PeerId id) {
  Peer* p = peer(id);
  if (!p || !p->active || p->seeder) return id;
  cut_off(id);

  proto_.on_peer_depart(id);
  tracker_.depart(id);

  // Re-key: same logical peer, fresh identity, download state kept. The
  // slot moves whole (cut_off left its row all zero) and the retired id's
  // slot is left empty, its row freed.
  const PeerId fresh = allocate_id();
  slots_[fresh] = std::exchange(slots_[id], Slot{});
  Peer& moved = *slots_[fresh].peer;
  moved.id = fresh;
  moved.requested = moved.have;  // in-flight claims die with the identity
  metrics_.rekey(id, fresh);
  bw_.set_capacity(fresh, class_rate(moved));
  tracker_.announce(fresh);

  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = obs::EventKind::kPeerWhitewash,
                .a = id,
                .b = fresh});
  }
  proto_.on_peer_rekeyed(id, fresh);
  setup_peer_links(fresh);
  proto_.on_peer_join(fresh);
  arm_faults(fresh);
  return fresh;
}

void Swarm::setup_peer_links(PeerId id) {
  refresh_neighbors(id);
  schedule_maintenance(id);
}

void Swarm::schedule_maintenance(PeerId id) {
  // Periodic overlay maintenance (and the free-rider large-view loop).
  sim_.schedule_in(kRechokePeriod, [this, id] {
    if (!is_active(id)) return;
    maintenance_tick(id);
    schedule_maintenance(id);
  });
}

void Swarm::maintenance_tick(PeerId id) {
  Peer* p = peer(id);
  if (!p || !p->active) return;
  if (p->freerider && cfg_.freerider_large_view) {
    // Large-view exploit: fetch a fresh list every rechoke period and
    // connect to everyone on it (§IV-C).
    refresh_neighbors(id);
    return;
  }
  if (p->neighbors.size() < kMinNeighbors) {
    refresh_neighbors(id);
    return;
  }
  // Starvation guard: a leecher whose whole neighborhood has nothing it
  // needs re-announces to the tracker for fresh peers (otherwise an
  // endgame cluster with identical bitfields can deadlock away from the
  // seeder).
  if (!p->seeder && !p->have.complete()) {
    bool useful = false;
    for (PeerId n : p->neighbors) {
      if (needs_from(id, n)) {
        useful = true;
        break;
      }
    }
    if (!useful) {
      // Make room before re-announcing if we're at the connection cap.
      while (p->neighbors.size() + 5 > kMaxNeighbors) {
        disconnect(id, p->neighbors[rng_.index(p->neighbors.size())]);
      }
      refresh_neighbors(id);
    }
  }
}

void Swarm::join_leecher(std::size_t arrival_index, SimTime now) {
  const PeerId id = allocate_id();
  const double kbps =
      kLeecherUploadKbps[arrival_index % kLeecherUploadKbps.size()];
  const bool freerider = std::binary_search(freerider_arrival_index_.begin(),
                                            freerider_arrival_index_.end(),
                                            arrival_index);

  // Fig 6(b): pre-populate a fraction of random pieces (never all).
  Bitfield have(piece_count_);
  if (cfg_.initial_piece_fraction > 0.0) {
    auto want = static_cast<std::size_t>(cfg_.initial_piece_fraction *
                                         static_cast<double>(piece_count_));
    want = std::min(want, piece_count_ - 1);
    for (std::size_t i : rng_.sample_indices(piece_count_, want)) {
      have.set(static_cast<PieceIndex>(i));
    }
  }

  add_leecher(id, kbps, freerider, std::move(have), now);
}

void Swarm::add_leecher(PeerId id, double upload_kbps, bool freerider,
                        Bitfield have, SimTime now) {
  auto p = std::make_unique<Peer>();
  p->id = id;
  p->upload_kbps = upload_kbps;
  p->freerider = freerider;
  p->colluder = freerider && cfg_.freerider_collude;
  p->requested = have;
  p->have = std::move(have);
  p->join_time = now;

  auto& rec = metrics_.record(id);
  rec.freerider = p->freerider;
  rec.colluder = p->colluder;
  rec.upload_kbps = upload_kbps;
  rec.join_time = now;
  rec.pieces_downloaded = static_cast<std::int64_t>(p->have.count());

  bw_.set_capacity(id, class_rate(*p));
  slots_[id].avail.assign(piece_count_, 0);
  if (obs_ != nullptr) {
    std::uint8_t flags = 0;
    if (p->freerider) flags |= obs::kPeerFlagFreerider;
    if (p->colluder) flags |= obs::kPeerFlagColluder;
    obs_->emit({.t = now, .kind = obs::EventKind::kPeerJoin, .aux = flags, .a = id});
  }
  slots_[id].peer = std::move(p);
  tracker_.announce(id);
  ++active_leechers_;

  setup_peer_links(id);
  proto_.on_peer_join(id);
  arm_faults(id);
}

void Swarm::check_done() {
  if (cfg_.replace_on_finish) return;  // horizon-bounded scenario
  if (arrivals_started_ != arrivals_.size()) return;
  // Global liveness valve: a wedged swarm (nothing completing anywhere)
  // ends rather than idling to max_sim_time.
  if (sim_.now() - std::max(last_any_progress_, arrivals_.back()) >
      kGlobalStallTimeout) {
    done_ = true;
    return;
  }
  if (compliant_outstanding_ != 0) return;
  if (!cfg_.wait_for_freeriders || freerider_outstanding_ == 0) {
    done_ = true;
    return;
  }
  // Free-riders still unfinished: give them until they stall (e.g. T-Chain
  // free-riders never complete a piece and must not hold the run hostage).
  if (sim_.now() - last_freerider_progress_ > cfg_.freerider_stall_timeout) {
    done_ = true;
  }
}

void Swarm::run() {
  // Seeder (stays for the whole run, paper §IV-A).
  seeder_id_ = allocate_id();
  {
    auto s = std::make_unique<Peer>();
    s->id = seeder_id_;
    s->seeder = true;
    s->upload_kbps = kSeederUploadKbps;
    s->have = Bitfield(piece_count_);
    for (PieceIndex i = 0; i < piece_count_; ++i) s->have.set(i);
    s->requested = s->have;
    auto& rec = metrics_.record(seeder_id_);
    rec.seeder = true;
    rec.upload_kbps = kSeederUploadKbps;
    bw_.set_capacity(seeder_id_,
                     util::kbps_to_bytes_per_sec(kSeederUploadKbps));
    slots_[seeder_id_].avail.assign(piece_count_, 0);
    slots_[seeder_id_].peer = std::move(s);
    tracker_.announce(seeder_id_);
  }

  compliant_outstanding_ =
      arrivals_.size() - freerider_arrival_index_.size();
  freerider_outstanding_ = freerider_arrival_index_.size();

  // Periodic housekeeping: evaluates the free-rider stall timeout.
  struct HkDriver {
    Swarm* s;
    void operator()() const {
      s->check_done();
      if (!s->done_) s->sim_.schedule_in(50.0, *this);
    }
  };
  sim_.schedule_in(50.0, HkDriver{this});

  proto_.on_run_start();
  if (obs_ != nullptr) {
    obs_->emit({.t = sim_.now(),
                .kind = obs::EventKind::kPeerJoin,
                .aux = obs::kPeerFlagSeeder,
                .a = seeder_id_});
  }
  proto_.on_peer_join(seeder_id_);

  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    const SimTime t = arrivals_[i];
    sim_.schedule_at(t, [this, i, t] {
      ++arrivals_started_;
      join_leecher(i, t);
    });
  }

  check_done();
  while (!done_ && sim_.step()) {
    if (sim_.now() > cfg_.max_sim_time) break;
  }
}

}  // namespace tc::bt
