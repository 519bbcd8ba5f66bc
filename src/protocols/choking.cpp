#include "src/protocols/choking.h"

#include <algorithm>

namespace tc::protocols {

ChokingProtocol::ChokeState& ChokingProtocol::state(PeerId id) {
  return states_[id];
}

double ChokingProtocol::score(const ChokeState& st, PeerId n) const {
  double s = 0.0;
  if (const auto it = st.recv_cur.find(n); it != st.recv_cur.end())
    s += it->second;
  if (const auto it = st.recv_prev.find(n); it != st.recv_prev.end())
    s += it->second;
  return s;
}

std::vector<PeerId> ChokingProtocol::interested_neighbors(PeerId p) const {
  std::vector<PeerId> out;
  const bt::Peer* pp = swarm_->peer(p);
  if (pp == nullptr) return out;
  for (PeerId n : pp->neighbors) {
    const bt::Peer* np = swarm_->peer(n);
    if (np == nullptr || !np->active || np->seeder) continue;
    if (swarm_->needs_from(n, p)) out.push_back(n);
  }
  return out;
}

void ChokingProtocol::on_peer_join(PeerId id) {
  states_[id];  // materialize
  // First rechoke shortly after joining, then every kRechokePeriod.
  swarm_->simulator().schedule_in(0.1, [this, id] { rechoke_loop(id); });
}

void ChokingProtocol::rechoke_loop(PeerId id) {
  if (!swarm_->is_active(id)) return;
  ++state(id).round;  // optimistic-unchoke rotation follows the timer
  rechoke(id);
  // Contribution windows rotate only on the periodic boundary (scores span
  // the last two rounds), not on event-driven re-chokes.
  ChokeState& st = state(id);
  st.recv_prev = std::move(st.recv_cur);
  st.recv_cur.clear();
  swarm_->simulator().schedule_in(bt::kRechokePeriod,
                                  [this, id] { rechoke_loop(id); });
}

void ChokingProtocol::on_peer_depart(PeerId id) { states_.erase(id); }

void ChokingProtocol::on_piece_complete(PeerId peer, PieceIndex, PeerId from) {
  const auto it = states_.find(peer);
  if (it != states_.end()) {
    it->second.recv_cur[from] += static_cast<double>(swarm_->config().piece_bytes);
  }
}

void ChokingProtocol::rechoke(PeerId id) {
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  ChokeState& st = state(id);
  obs::Trace* tr = swarm_->obs();

  // Tracing: snapshot the (ascending) unchoke set so the recompute can be
  // diffed into kChoke / kUnchoke events. Reads only; never perturbs the
  // run.
  std::vector<PeerId> before;
  if (tr != nullptr) {
    before.reserve(st.unchoked.size());
    for (const auto& [n, w] : st.unchoked) {
      (void)w;
      before.push_back(n);
    }
  }

  const bool freerider = p->freerider && !p->seeder;
  if (freerider) {
    // The attack model: contribute nothing.
    st.unchoked.clear();
  } else {
    compute_unchokes(id, st);
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
  if (freerider) return;

  for (const auto& [n, w] : st.unchoked) {
    (void)w;
    if (!st.uploading.count(n)) try_start_upload(id, n);
  }
}

void ChokingProtocol::try_start_upload(PeerId from, PeerId to) {
  ChokeState& st = state(from);
  const auto un = st.unchoked.find(to);
  if (un == st.unchoked.end()) return;
  if (!swarm_->is_active(to) || !swarm_->is_active(from)) return;
  if (!swarm_->needs_from(to, from)) return;
  const auto piece = swarm_->select_lrf(to, from);
  if (!piece) return;

  st.uploading.insert(to);
  swarm_->start_upload(
      from, to, *piece, un->second,
      [this](PeerId f, PeerId t, PieceIndex pc, bool ok) {
        const auto sit = states_.find(f);
        if (sit != states_.end()) sit->second.uploading.erase(t);
        if (!ok) return;
        swarm_->grant_piece(t, pc, f);
        if (swarm_->is_active(f)) fill_slots(f);
      });
}

void ChokingProtocol::fill_slots(PeerId from) {
  ChokeState& st = state(from);
  for (const auto& [n, w] : st.unchoked) {
    (void)w;
    if (!st.uploading.count(n)) try_start_upload(from, n);
  }
  if (st.uploading.empty()) {
    // Every unchoked neighbor is satisfied or gone: re-choke immediately
    // instead of idling until the next 10-second boundary.
    rechoke(from);
  }
}

// --- Original BitTorrent ----------------------------------------------------

void BitTorrentProtocol::compute_unchokes(PeerId p, ChokeState& st) {
  const bt::Peer* pp = swarm_->peer(p);
  std::vector<PeerId> interested = interested_neighbors(p);
  st.unchoked.clear();

  if (pp->seeder) {
    // Seeder: rotate random interested leechers (altruistic).
    swarm_->rng().shuffle(interested);
    const std::size_t take =
        std::min(interested.size(), bt::kUnchokeSlots + 1);
    for (std::size_t i = 0; i < take; ++i) st.unchoked[interested[i]] = 1.0;
    return;
  }

  // Top-k contributors by download rate over the last two rounds.
  std::vector<std::pair<double, PeerId>> ranked;
  ranked.reserve(interested.size());
  for (PeerId n : interested)
    ranked.emplace_back(score(st, n), n);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < ranked.size() && i < bt::kUnchokeSlots; ++i) {
    st.unchoked[ranked[i].second] = 1.0;
  }

  // Optimistic unchoke: random interested choked neighbor, rotated every
  // kOptimisticPeriod (every 3rd rechoke).
  constexpr auto rounds_per_opt =
      static_cast<std::uint64_t>(bt::kOptimisticPeriod / bt::kRechokePeriod);
  if (st.round % rounds_per_opt == 1 || st.optimistic == net::kNoPeer ||
      !swarm_->is_active(st.optimistic)) {
    std::vector<PeerId> choked;
    for (PeerId n : interested)
      if (!st.unchoked.count(n)) choked.push_back(n);
    st.optimistic =
        choked.empty() ? net::kNoPeer : choked[swarm_->rng().index(choked.size())];
  }
  if (st.optimistic != net::kNoPeer) st.unchoked[st.optimistic] = 1.0;
}

// --- PropShare ---------------------------------------------------------------

void PropShareProtocol::compute_unchokes(PeerId p, ChokeState& st) {
  const bt::Peer* pp = swarm_->peer(p);
  std::vector<PeerId> interested = interested_neighbors(p);
  st.unchoked.clear();

  if (pp->seeder) {
    swarm_->rng().shuffle(interested);
    const std::size_t take =
        std::min(interested.size(), bt::kUnchokeSlots + 1);
    for (std::size_t i = 0; i < take; ++i) st.unchoked[interested[i]] = 1.0;
    return;
  }

  // Bandwidth proportional to last-round contribution [11].
  double total = 0.0;
  std::vector<PeerId> noncontributors;
  for (PeerId n : interested) {
    const double s = score(st, n);
    if (s > 0.0) {
      st.unchoked[n] = s;
      total += s;
    } else {
      noncontributors.push_back(n);
    }
  }

  // ~20% exploration budget (the PropShare paper's newcomer share); with no
  // contributors the whole pipe explores.
  if (!noncontributors.empty()) {
    const PeerId pick =
        noncontributors[swarm_->rng().index(noncontributors.size())];
    st.unchoked[pick] = total > 0.0 ? 0.25 * total : 1.0;
  }
}

// --- Random BitTorrent ---------------------------------------------------------

void RandomBitTorrentProtocol::compute_unchokes(PeerId p, ChokeState& st) {
  std::vector<PeerId> interested = interested_neighbors(p);
  st.unchoked.clear();
  swarm_->rng().shuffle(interested);
  const std::size_t take = std::min(interested.size(), bt::kUnchokeSlots + 1);
  for (std::size_t i = 0; i < take; ++i) st.unchoked[interested[i]] = 1.0;
  (void)p;
}

}  // namespace tc::protocols
