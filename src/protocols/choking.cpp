#include "src/protocols/choking.h"

namespace tc::protocols {

void BaselineProtocol::on_peer_join(PeerId id) { schedule_period(id, 0.1); }

void BaselineProtocol::schedule_period(PeerId id, double delay) {
  swarm_->simulator().schedule_in(delay, [this, id] {
    if (!swarm_->is_active(id)) return;
    on_period(id);
    schedule_period(id, bt::kRechokePeriod);
  });
}

void ChokingProtocol::on_peer_join(PeerId id) {
  fit(states_, id);
  BaselineProtocol::on_peer_join(id);
}

void ChokingProtocol::on_period(PeerId id) {
  ChokeState& st = states_[id];
  ++st.round;  // optimistic-unchoke rotation follows the timer
  rechoke(id);
  // Contribution windows rotate only on the periodic boundary (scores span
  // the last two rounds), not on event-driven re-chokes.
  st.recv_prev = std::move(st.recv_cur);
  st.recv_cur.clear();
}

void ChokingProtocol::on_peer_depart(PeerId id) { states_[id] = {}; }

void ChokingProtocol::on_piece_complete(PeerId peer, PieceIndex, PeerId from) {
  states_[peer].recv_cur[from] +=
      static_cast<double>(swarm_->config().piece_bytes);
}

void ChokingProtocol::rechoke(PeerId id) {
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  ChokeState& st = states_[id];
  obs::Trace* tr = swarm_->obs();

  // Tracing: snapshot the (ascending) unchoke set so the recompute can be
  // diffed into kChoke / kUnchoke events. Reads only; never perturbs the
  // run.
  std::vector<PeerId> before;
  if (tr != nullptr) {
    before.reserve(st.unchoked.size());
    for (const auto& e : st.unchoked) before.push_back(e.first);
  }

  // A free-rider contributes nothing: the attack model.
  const bool freerider = p->freerider && !p->seeder;
  st.unchoked.clear();
  if (!freerider) {
    std::vector<PeerId> interested;
    for_each_interested(*p, [&](PeerId n) { interested.push_back(n); });
    if (p->seeder) {
      unchoke_random(st, interested);  // altruistic rotation
    } else {
      compute_unchokes(st, interested);
    }
  }

  if (tr != nullptr) {
    const util::SimTime now = swarm_->simulator().now();
    // Merge-walk the ascending before/after sets.
    auto i = before.begin();
    auto j = st.unchoked.begin();
    while (i != before.end() || j != st.unchoked.end()) {
      if (j == st.unchoked.end() || (i != before.end() && *i < j->first)) {
        tr->emit({.t = now, .kind = obs::EventKind::kChoke, .a = id,
                  .b = *i});
        ++i;
      } else if (i == before.end() || j->first < *i) {
        tr->emit({.t = now, .kind = obs::EventKind::kUnchoke, .a = id,
                  .b = j->first});
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  if (!freerider) upload_to_unchoked(id, st);
}

void ChokingProtocol::unchoke_random(ChokeState& st,
                                     std::vector<PeerId>& interested) {
  swarm_->rng().shuffle(interested);
  const std::size_t take = std::min(interested.size(), bt::kUnchokeSlots + 1);
  for (std::size_t i = 0; i < take; ++i) st.unchoked[interested[i]] = 1.0;
}

void ChokingProtocol::upload_to_unchoked(PeerId id, ChokeState& st) {
  for (const auto& [n, w] : st.unchoked) {
    if (!st.uploading.count(n)) try_start_upload(id, n, w);
  }
}

void ChokingProtocol::try_start_upload(PeerId from, PeerId to, double weight) {
  if (!swarm_->is_active(to) || !swarm_->is_active(from)) return;
  if (!swarm_->needs_from(to, from)) return;
  const auto piece = swarm_->select_lrf(to, from);
  if (!piece) return;

  states_[from].uploading.insert(to);
  swarm_->start_upload(
      from, to, *piece, weight,
      [this](PeerId f, PeerId t, PieceIndex pc, bool ok) {
        ChokeState& st = states_[f];
        st.uploading.erase(t);
        if (!ok) return;
        swarm_->grant_piece(t, pc, f);
        if (!swarm_->is_active(f)) return;
        // Keep the pipe busy: retry every unchoked neighbor, and re-choke at
        // once when all of them are satisfied or gone instead of idling
        // until the next period (event-driven version of mainline's
        // interest-change handling).
        upload_to_unchoked(f, st);
        if (st.uploading.empty()) rechoke(f);
      });
}

// --- Original BitTorrent ----------------------------------------------------

void BitTorrentProtocol::compute_unchokes(ChokeState& st,
                                          std::vector<PeerId>& interested) {
  // Top-k contributors by download rate over the last two rounds.
  unchoke_top(st, interested, [&st](PeerId n) { return score(st, n); });

  // Optimistic unchoke: random interested choked neighbor, rotated every
  // kOptimisticPeriod (every 3rd rechoke).
  constexpr auto rounds_per_opt =
      static_cast<std::uint64_t>(bt::kOptimisticPeriod / bt::kRechokePeriod);
  if (st.round % rounds_per_opt == 1 || st.optimistic == net::kNoPeer ||
      !swarm_->is_active(st.optimistic)) {
    st.optimistic = pick_choked(st, interested, [](PeerId) { return true; });
  }
  if (st.optimistic != net::kNoPeer) st.unchoked[st.optimistic] = 1.0;
}

// --- PropShare ---------------------------------------------------------------

void PropShareProtocol::compute_unchokes(ChokeState& st,
                                         std::vector<PeerId>& interested) {
  // Bandwidth proportional to last-round contribution [11].
  double total = 0.0;
  for (PeerId n : interested) {
    const double s = score(st, n);
    if (s > 0.0) {
      st.unchoked[n] = s;
      total += s;
    }
  }

  // ~20% exploration budget (the PropShare paper's newcomer share) for one
  // non-contributor; with no contributors the whole pipe explores.
  const PeerId pick = pick_choked(st, interested, [](PeerId) { return true; });
  if (pick != net::kNoPeer)
    st.unchoked[pick] = total > 0.0 ? 0.25 * total : 1.0;
}

}  // namespace tc::protocols
