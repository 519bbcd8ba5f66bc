#include "src/protocols/fairtorrent.h"

#include <limits>

namespace tc::protocols {

void FairTorrentProtocol::on_peer_join(PeerId id) {
  fit(states_, id);
  BaselineProtocol::on_peer_join(id);
}

void FairTorrentProtocol::on_peer_depart(PeerId id) { states_[id] = {}; }

void FairTorrentProtocol::on_piece_complete(PeerId peer, PieceIndex,
                                            PeerId from) {
  states_[peer].deficit[from] -=
      static_cast<double>(swarm_->config().piece_bytes);
}

void FairTorrentProtocol::on_neighbor_added(PeerId a, PeerId b) {
  // The swarm links a newcomer in before its join, so its entry may start
  // here. A new interested neighbor may unblock an idle sender on either
  // side.
  fit(states_, std::max(a, b));
  if (swarm_->is_active(a)) next_send(a);
  if (swarm_->is_active(b)) next_send(b);
}

double FairTorrentProtocol::deficit(PeerId peer, PeerId neighbor) const {
  return peer < states_.size() ? at_or_zero(states_[peer].deficit, neighbor)
                               : 0.0;
}

void FairTorrentProtocol::next_send(PeerId id) {
  FtState& st = states_[id];
  if (st.sending) return;
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  if (p->freerider && !p->seeder) return;  // contributes nothing

  // Lowest-deficit interested neighbor (ties random).
  PeerId target = net::kNoPeer;
  double best = std::numeric_limits<double>::infinity();
  std::size_t ties = 0;
  for_each_interested(*p, [&](PeerId n) {
    const double d = at_or_zero(st.deficit, n);
    if (d < best) {
      best = d;
      target = n;
      ties = 1;
    } else if (d == best && swarm_->rng().index(++ties) == 0) {
      target = n;
    }
  });
  if (target == net::kNoPeer) return;

  const auto piece = swarm_->select_lrf(target, id);
  if (!piece) return;

  st.sending = true;
  swarm_->start_upload(
      id, target, *piece, /*weight=*/1.0,
      [this](PeerId f, PeerId t, PieceIndex pc, bool ok) {
        FtState& fs = states_[f];
        fs.sending = false;
        if (ok) {
          fs.deficit[t] += static_cast<double>(swarm_->config().piece_bytes);
          swarm_->grant_piece(t, pc, f);
        }
        if (swarm_->is_active(f)) next_send(f);
      });
}

}  // namespace tc::protocols
