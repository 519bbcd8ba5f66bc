// FairTorrent [12]: deficit-based distributed fair exchange. Every peer
// tracks, per neighbor, deficit = bytes sent - bytes received, and always
// sends the next piece to the interested neighbor with the lowest deficit.
// No choking, no bandwidth allocation — sends are serial at full rate.
//
// The known weakness the paper exploits (§IV-C): deficits are bound to
// identities, so a whitewashing free-rider re-enters with deficit 0 and
// collects one free piece per identity; seeders cannot be protected at all.
#pragma once

#include "src/protocols/choking.h"

namespace tc::protocols {

class FairTorrentProtocol : public BaselineProtocol {
 public:
  std::string name() const override { return "FairTorrent"; }
  util::ByteCount default_piece_bytes() const override {
    return 64 * util::kKiB;  // FairTorrent's basic exchange unit (§IV-A)
  }

  void on_peer_join(PeerId id) override;
  void on_peer_depart(PeerId id) override;
  void on_piece_complete(PeerId peer, PieceIndex piece, PeerId from) override;
  void on_neighbor_added(PeerId a, PeerId b) override;

  // 0 for a departed identity or a stranger.
  double deficit(PeerId peer, PeerId neighbor) const;

 protected:
  // Periodic retry covers the idle case (nobody interested right now): a
  // peer whose `unwanted` flag a piece or an abort cleared walks again here.
  void on_period(PeerId id) override { next_send(id); }

 private:
  struct FtState {
    std::unordered_map<PeerId, double> deficit;  // sent - received
    bool sending = false;
    // Set when an idle peer's walk found no interested neighbour; next_send
    // returns before the walk while it holds, since that walk would find
    // nobody again, draw nothing and start nothing. It stays true until
    // interest can appear, which takes one of three events, each clearing
    // it:
    //  - the peer's `have` grows: only in Swarm::grant_piece, which calls
    //    on_piece_complete;
    //  - a neighbour's `requested` shrinks: only on an aborted upload,
    //    which this protocol's own upload callback sees (ok == false), or
    //    on a re-key, whose identity reaches nobody except through new
    //    links;
    //  - a new link brings an interested neighbour: links are made only in
    //    Swarm::connect, which calls on_neighbor_added.
    // A departure, a finished leecher or a neighbour's growing `requested`
    // only shrinks interest.
    bool unwanted = false;
  };

  void next_send(PeerId id);

  std::vector<FtState> states_;
};

}  // namespace tc::protocols
