#include "src/protocols/fairtorrent.h"

#include <limits>

namespace tc::protocols {
namespace {

// True when for_each_interested(sender) would visit `receiver`.
bool wants_from(const bt::Peer& receiver, const bt::Peer& sender) {
  return receiver.active && !receiver.seeder &&
         receiver.requested.interested_in(sender.have);
}

}  // namespace

void FairTorrentProtocol::on_peer_join(PeerId id) {
  fit(states_, id);
  BaselineProtocol::on_peer_join(id);
}

void FairTorrentProtocol::on_peer_depart(PeerId id) { states_[id] = {}; }

void FairTorrentProtocol::on_piece_complete(PeerId peer, PieceIndex,
                                            PeerId from) {
  FtState& st = states_[peer];
  st.deficit[from] -= static_cast<double>(swarm_->config().piece_bytes);
  st.unwanted = false;  // a piece more may be one a neighbour lacks
}

void FairTorrentProtocol::on_neighbor_added(PeerId a, PeerId b) {
  // The swarm links a newcomer in before its join, so its entry may start
  // here. A new interested neighbor may unblock an idle sender on either
  // side.
  fit(states_, std::max(a, b));
  const bt::Peer& pa = *swarm_->peer(a);
  const bt::Peer& pb = *swarm_->peer(b);
  if (states_[a].unwanted && wants_from(pb, pa)) states_[a].unwanted = false;
  if (states_[b].unwanted && wants_from(pa, pb)) states_[b].unwanted = false;
  if (pa.active) next_send(a);
  if (pb.active) next_send(b);
}

double FairTorrentProtocol::deficit(PeerId peer, PeerId neighbor) const {
  return peer < states_.size() ? at_or_zero(states_[peer].deficit, neighbor)
                               : 0.0;
}

void FairTorrentProtocol::next_send(PeerId id) {
  FtState& st = states_[id];
  if (st.sending || st.unwanted) return;
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
  if (target == net::kNoPeer) {
    st.unwanted = true;
    return;
  }

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
        } else if (const bt::Peer* tp = swarm_->peer(t)) {
          // The swarm has just dropped t's claim on pc.
          for (PeerId n : tp->neighbors) states_[n].unwanted = false;
        }
        if (swarm_->is_active(f)) next_send(f);
      });
}

}  // namespace tc::protocols
