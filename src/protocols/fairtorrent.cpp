#include "src/protocols/fairtorrent.h"

#include <limits>

namespace tc::protocols {

void FairTorrentProtocol::on_peer_join(PeerId id) {
  states_[id];
  swarm_->simulator().schedule_in(0.1, [this, id] { tick(id); });
}

void FairTorrentProtocol::tick(PeerId id) {
  if (!swarm_->is_active(id)) return;
  next_send(id);
  // Periodic retry covers the idle case (nobody interested right now).
  swarm_->simulator().schedule_in(bt::kRechokePeriod,
                                  [this, id] { tick(id); });
}

void FairTorrentProtocol::on_peer_depart(PeerId id) { states_.erase(id); }

void FairTorrentProtocol::on_piece_complete(PeerId peer, PieceIndex,
                                            PeerId from) {
  const auto it = states_.find(peer);
  if (it != states_.end()) {
    it->second.deficit[from] -=
        static_cast<double>(swarm_->config().piece_bytes);
  }
}

void FairTorrentProtocol::on_neighbor_added(PeerId a, PeerId b) {
  // A new interested neighbor may unblock an idle sender on either side.
  if (swarm_->is_active(a)) next_send(a);
  if (swarm_->is_active(b)) next_send(b);
}

double FairTorrentProtocol::deficit(PeerId peer, PeerId neighbor) const {
  const auto it = states_.find(peer);
  if (it == states_.end()) return 0.0;
  const auto d = it->second.deficit.find(neighbor);
  return d == it->second.deficit.end() ? 0.0 : d->second;
}

void FairTorrentProtocol::next_send(PeerId id) {
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  if (p->freerider && !p->seeder) return;  // contributes nothing
  FtState& st = state(id);
  if (st.sending) return;

  // Lowest-deficit interested neighbor (ties random).
  PeerId target = net::kNoPeer;
  double best = std::numeric_limits<double>::infinity();
  std::size_t ties = 0;
  for (PeerId n : p->neighbors) {
    const bt::Peer* np = swarm_->peer(n);
    if (np == nullptr || !np->active || np->seeder) continue;
    if (!swarm_->needs_from(n, id)) continue;
    double d = 0.0;
    if (const auto it = st.deficit.find(n); it != st.deficit.end())
      d = it->second;
    if (d < best) {
      best = d;
      target = n;
      ties = 1;
    } else if (d == best) {
      ++ties;
      if (swarm_->rng().index(ties) == 0) target = n;
    }
  }
  if (target == net::kNoPeer) return;

  const auto piece = swarm_->select_lrf(target, id);
  if (!piece) return;

  st.sending = true;
  swarm_->start_upload(
      id, target, *piece, /*weight=*/1.0,
      [this](PeerId f, PeerId t, PieceIndex pc, bool ok) {
        const auto it = states_.find(f);
        if (it != states_.end()) it->second.sending = false;
        if (ok) {
          if (it != states_.end()) {
            it->second.deficit[t] +=
                static_cast<double>(swarm_->config().piece_bytes);
          }
          swarm_->grant_piece(t, pc, f);
        }
        if (swarm_->is_active(f)) next_send(f);
      });
}

}  // namespace tc::protocols
