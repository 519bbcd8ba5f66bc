#include "src/protocols/indirect.h"

namespace tc::protocols {

// --- EigenTrust ---------------------------------------------------------------

void EigenTrustProtocol::on_run_start() {
  swarm_->simulator().schedule_in(kTrustPeriod, [this] { trust_loop(); });
}

void EigenTrustProtocol::trust_loop() {
  recompute_trust();
  swarm_->simulator().schedule_in(kTrustPeriod, [this] { trust_loop(); });
}

void EigenTrustProtocol::on_peer_join(PeerId id) {
  ChokingProtocol::on_peer_join(id);
  fit(sat_, id);
}

void EigenTrustProtocol::on_peer_depart(PeerId id) {
  ChokingProtocol::on_peer_depart(id);
  sat_[id] = {};  // recompute_trust reads active peers' rows only
}

void EigenTrustProtocol::on_piece_complete(PeerId peer, PieceIndex piece,
                                           PeerId from) {
  ChokingProtocol::on_piece_complete(peer, piece, from);
  sat_[peer][from] += 1.0;
}

double EigenTrustProtocol::trust(PeerId id) const {
  return id < global_trust_.size() ? global_trust_[id] : 0.0;
}

void EigenTrustProtocol::recompute_trust() {
  // t_{k+1} = (1-a) C^T t_k + a p, with pre-trust p concentrated on the
  // seeder and a = 0.15 (the EigenTrust paper's damping against collusion
  // cliques).
  const auto peers = swarm_->active_peers();  // ascending, seeder included
  if (peers.empty()) return;
  constexpr double kAlpha = 0.15;
  const bool collude = swarm_->config().freerider_collude;

  // rows[k]: peers[k]'s normalized local trust, false praise injected.
  std::vector<std::vector<std::pair<PeerId, double>>> rows(peers.size());
  for (std::size_t k = 0; k < peers.size(); ++k) {
    const PeerId i = peers[k];
    auto& row = rows[k];
    double total = 0.0;
    // The counts are integers, so total is exact in any order, and each
    // next[j] below accumulates in the order of i.
    for (const auto& [j, s] : sat_[i]) {  // det-ok
      if (!swarm_->is_active(j)) continue;
      row.emplace_back(j, s);
      total += s;
    }
    if (collude && swarm_->peer(i)->colluder) {
      // False praise: report maximal trust in fellow colluders.
      for (PeerId j : peers) {
        if (j == i || !swarm_->peer(j)->colluder) continue;
        const double praise = total > 0 ? total : 1.0;
        row.emplace_back(j, praise);
        total += praise;
      }
    }
    for (auto& e : row) e.second /= total;  // an empty row has total 0
  }

  // Dense by id: every j in a row is active, so at most peers.back().
  std::vector<double> t(peers.back() + 1, 0.0);
  std::vector<double> next(t.size());
  const double uniform = 1.0 / static_cast<double>(peers.size());
  for (PeerId i : peers) t[i] = uniform;
  for (int iter = 0; iter < kPowerIterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t k = 0; k < peers.size(); ++k) {
      const double ti = t[peers[k]];
      for (const auto& [j, c] : rows[k]) next[j] += (1 - kAlpha) * c * ti;
    }
    next[swarm_->seeder_id()] += kAlpha;  // pre-trust mass
    t.swap(next);
  }
  global_trust_ = std::move(t);
}

void EigenTrustProtocol::compute_unchokes(ChokeState& st,
                                          std::vector<PeerId>& interested) {
  // Most-trusted interested neighbors get the regular slots...
  unchoke_top(st, interested, [this](PeerId n) { return trust(n); });
  // ...and ~10% of resources go to zero-trust newcomers (one slot with a
  // half weight ~= 10% of a 5-slot pipe), EigenTrust's bootstrap allotment.
  const PeerId newcomer = pick_choked(
      st, interested, [this](PeerId n) { return trust(n) <= 1e-12; });
  if (newcomer != net::kNoPeer) st.unchoked[newcomer] = 0.5;
}

// --- Dandelion -----------------------------------------------------------------

void DandelionProtocol::on_peer_join(PeerId id) {
  fit(states_, id);  // mint initial credit (the server sees a newcomer)
  BaselineProtocol::on_peer_join(id);
}

void DandelionProtocol::on_peer_depart(PeerId id) { states_[id] = {}; }

double DandelionProtocol::credit(PeerId id) const {
  return swarm_->is_active(id) ? states_[id].credit : 0.0;
}

void DandelionProtocol::on_period(PeerId id) {
  // Dandelion assumes credit can be "earned by some means outside the
  // scope of the file-sharing system": a broke compliant client tops up a
  // single credit per period. Free-riders, by definition, spend nothing —
  // they live off the per-identity initial mint (and whitewashing).
  if (const bt::Peer* p = swarm_->peer(id); !p->seeder && !p->freerider) {
    double& c = states_[id].credit;
    c = std::max(c, 1.0);
  }
  pump(id);
}

void DandelionProtocol::pump(PeerId id) {
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  if (p->freerider && !p->seeder) return;  // uploads nothing
  State& st = states_[id];
  // The server mints one credit per delivered piece for the uploader and
  // burns one from the downloader — each peer's balance tracks its own
  // contribution surplus (initial + uploaded - downloaded), so finishers
  // leaving cannot drain the economy.
  while (st.active_uploads < kUploadSlots) {
    // A uniform draw among the interested neighbors that can pay.
    PeerId target = net::kNoPeer;
    std::size_t count = 0;
    for_each_interested(*p, [&](PeerId n) {
      if (states_[n].credit >= 1.0 && swarm_->rng().index(++count) == 0)
        target = n;
    });
    if (target == net::kNoPeer) return;
    const auto piece = swarm_->select_lrf(target, id);
    if (!piece) return;

    // Escrow the payment at upload start (server-mediated: no cheating).
    states_[target].credit -= 1.0;
    ++st.active_uploads;
    swarm_->start_upload(
        id, target, *piece, 1.0,
        [this](PeerId f, PeerId t, PieceIndex pc, bool ok) {
          State& fs = states_[f];
          if (fs.active_uploads > 0) --fs.active_uploads;
          if (!ok) {
            states_[t].credit += 1.0;  // the server refunds a lost piece
            return;
          }
          fs.credit += 1.0;
          swarm_->grant_piece(t, pc, f);
          if (swarm_->is_active(f)) pump(f);
        });
  }
}

}  // namespace tc::protocols
