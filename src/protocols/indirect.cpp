#include "src/protocols/indirect.h"

#include <algorithm>
#include <cmath>

namespace tc::protocols {

// --- EigenTrust ---------------------------------------------------------------

void EigenTrustProtocol::on_run_start() {
  swarm_->simulator().schedule_in(trust_period_, [this] { trust_loop(); });
}

void EigenTrustProtocol::trust_loop() {
  recompute_trust();
  swarm_->simulator().schedule_in(trust_period_, [this] { trust_loop(); });
}

void EigenTrustProtocol::on_piece_complete(PeerId peer, PieceIndex piece,
                                           PeerId from) {
  ChokingProtocol::on_piece_complete(peer, piece, from);
  sat_[peer][from] += 1.0;
}

double EigenTrustProtocol::trust(PeerId id) const {
  const auto it = global_trust_.find(id);
  return it == global_trust_.end() ? 0.0 : it->second;
}

void EigenTrustProtocol::recompute_trust() {
  // t_{k+1} = (1-a) C^T t_k + a p, with pre-trust p concentrated on the
  // seeder and a = 0.15 (the EigenTrust paper's damping against collusion
  // cliques).
  const auto peers = swarm_->active_peers();
  if (peers.empty()) return;
  constexpr double kAlpha = 0.15;
  const PeerId seeder = swarm_->seeder_id();
  const bool collude = swarm_->config().freerider_collude;

  // Normalized local trust rows, with the false-praise attack injected.
  std::unordered_map<PeerId, std::vector<std::pair<PeerId, double>>> rows;
  for (PeerId i : peers) {
    std::vector<std::pair<PeerId, double>> row;
    double total = 0.0;
    const bt::Peer* pi = swarm_->peer(i);
    const bool i_colluder = pi != nullptr && pi->colluder;
    if (const auto it = sat_.find(i); it != sat_.end()) {
      for (const auto& [j, s] : it->second) {
        if (!swarm_->is_active(j)) continue;
        row.emplace_back(j, s);
        total += s;
      }
    }
    if (i_colluder && collude) {
      // False praise: report maximal trust in fellow colluders.
      for (PeerId j : peers) {
        const bt::Peer* pj = swarm_->peer(j);
        if (pj != nullptr && pj->colluder && j != i) {
          row.emplace_back(j, total > 0 ? total : 1.0);
          total += total > 0 ? total : 1.0;
        }
      }
    }
    if (total > 0) {
      for (auto& [j, s] : row) s /= total;
      rows[i] = std::move(row);
    }
  }

  std::unordered_map<PeerId, double> t;
  const double uniform = 1.0 / static_cast<double>(peers.size());
  for (PeerId i : peers) t[i] = uniform;
  for (int iter = 0; iter < power_iterations_; ++iter) {
    std::unordered_map<PeerId, double> next;
    for (PeerId i : peers) {
      const auto it = rows.find(i);
      if (it == rows.end()) continue;
      const double ti = t[i];
      for (const auto& [j, c] : it->second) next[j] += (1 - kAlpha) * c * ti;
    }
    next[seeder] += kAlpha;  // pre-trust mass
    t = std::move(next);
  }
  global_trust_ = std::move(t);
}

void EigenTrustProtocol::compute_unchokes(PeerId p, ChokeState& st) {
  const bt::Peer* pp = swarm_->peer(p);
  std::vector<PeerId> interested = interested_neighbors(p);
  st.unchoked.clear();
  if (interested.empty()) return;

  if (pp->seeder) {
    swarm_->rng().shuffle(interested);
    const std::size_t take = std::min(interested.size(), bt::kUnchokeSlots + 1);
    for (std::size_t i = 0; i < take; ++i) st.unchoked[interested[i]] = 1.0;
    return;
  }

  // Most-trusted interested neighbors get the regular slots...
  std::vector<std::pair<double, PeerId>> ranked;
  ranked.reserve(interested.size());
  for (PeerId n : interested) ranked.emplace_back(trust(n), n);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < ranked.size() && i < bt::kUnchokeSlots; ++i) {
    st.unchoked[ranked[i].second] = 1.0;
  }
  // ...and ~10% of resources go to zero-trust newcomers (one slot with a
  // half weight ~= 10% of a 5-slot pipe), EigenTrust's bootstrap allotment.
  std::vector<PeerId> newcomers;
  for (PeerId n : interested) {
    if (trust(n) <= 1e-12 && !st.unchoked.count(n)) newcomers.push_back(n);
  }
  if (!newcomers.empty()) {
    st.unchoked[newcomers[swarm_->rng().index(newcomers.size())]] = 0.5;
  }
}

// --- Dandelion -----------------------------------------------------------------

void DandelionProtocol::on_peer_join(PeerId id) {
  states_[id];  // mint initial credit (the server sees a newcomer)
  swarm_->simulator().schedule_in(0.1, [this, id] { tick(id); });
}

void DandelionProtocol::on_peer_depart(PeerId id) { states_.erase(id); }

double DandelionProtocol::credit(PeerId id) const {
  const auto it = states_.find(id);
  return it == states_.end() ? 0.0 : it->second.credit;
}

void DandelionProtocol::tick(PeerId id) {
  if (!swarm_->is_active(id)) return;
  // Dandelion assumes credit can be "earned by some means outside the
  // scope of the file-sharing system": a broke compliant client tops up a
  // single credit per period. Free-riders, by definition, spend nothing —
  // they live off the per-identity initial mint (and whitewashing).
  if (const bt::Peer* p = swarm_->peer(id);
      p != nullptr && !p->seeder && !p->freerider) {
    State& st = state(id);
    if (st.credit < 1.0) st.credit = 1.0;
  }
  pump(id);
  swarm_->simulator().schedule_in(bt::kRechokePeriod,
                                  [this, id] { tick(id); });
}

void DandelionProtocol::pump(PeerId id) {
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  if (p->freerider && !p->seeder) return;  // uploads nothing
  State& st = state(id);
  // The server mints one credit per delivered piece for the uploader and
  // burns one from the downloader — each peer's balance tracks its own
  // contribution surplus (initial + uploaded - downloaded), so finishers
  // leaving cannot drain the economy.
  const bool free_service = false;
  while (st.active_uploads < upload_slots_) {
    PeerId target = net::kNoPeer;
    std::size_t count = 0;
    for (PeerId n : p->neighbors) {
      const bt::Peer* np = swarm_->peer(n);
      if (np == nullptr || !np->active || np->seeder) continue;
      if (!swarm_->needs_from(n, id)) continue;
      if (!free_service && credit(n) < 1.0) continue;  // cannot pay
      ++count;
      if (swarm_->rng().index(count) == 0) target = n;
    }
    if (target == net::kNoPeer) return;
    const auto piece = swarm_->select_lrf(target, id);
    if (!piece) return;

    // Escrow the payment at upload start (server-mediated: no cheating).
    if (!free_service) state(target).credit -= 1.0;
    ++st.active_uploads;
    swarm_->start_upload(
        id, target, *piece, 1.0,
        [this, free_service](PeerId f, PeerId t, PieceIndex pc, bool ok) {
          if (auto it = states_.find(f); it != states_.end()) {
            if (it->second.active_uploads > 0) --it->second.active_uploads;
            if (ok && !free_service) it->second.credit += 1.0;
          }
          if (!ok) {
            // Server refunds an undelivered piece.
            if (!free_service) {
              if (auto it = states_.find(t); it != states_.end())
                it->second.credit += 1.0;
            }
            return;
          }
          swarm_->grant_piece(t, pc, f);
          if (swarm_->is_active(f)) pump(f);
        });
  }
}

}  // namespace tc::protocols
