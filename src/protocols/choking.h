// Shared machinery for rate-based unchoking protocols (original BitTorrent,
// PropShare, Random BitTorrent): per-round contribution accounting, the
// rechoke timer, and the per-unchoked-neighbor upload loop. Subclasses only
// decide who gets unchoked and with what bandwidth weight.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/bt/protocol.h"
#include "src/bt/swarm.h"

namespace tc::protocols {

using bt::PeerId;
using bt::PieceIndex;

class ChokingProtocol : public bt::Protocol {
 public:
  void on_peer_join(PeerId id) override;
  void on_peer_depart(PeerId id) override;
  void on_piece_complete(PeerId peer, PieceIndex piece, PeerId from) override;

 protected:
  struct ChokeState {
    // Bytes received from each neighbor in the current / previous round.
    std::unordered_map<PeerId, double> recv_cur;
    std::unordered_map<PeerId, double> recv_prev;
    // Current unchoke set with per-flow bandwidth weights, ascending by
    // id: uploads start in this order.
    std::map<PeerId, double> unchoked;
    // Neighbors to which an upload flow is currently in flight.
    std::unordered_set<PeerId> uploading;
    PeerId optimistic = net::kNoPeer;
    std::uint64_t round = 0;
  };

  // Contribution score: bytes received over the last two rounds (~20 s).
  double score(const ChokeState& st, PeerId n) const;

  // Subclass decides the unchoke set for this round.
  virtual void compute_unchokes(PeerId p, ChokeState& st) = 0;

  // Interested = active, non-seeder neighbor that needs a piece of `p`.
  std::vector<PeerId> interested_neighbors(PeerId p) const;

  ChokeState& state(PeerId id);

  void rechoke(PeerId id);
  void try_start_upload(PeerId from, PeerId to);
  // Keeps the uploader's pipe busy: retries every unchoked neighbor and
  // falls back to an immediate re-choke when all of them are satisfied
  // (event-driven version of mainline's interest-change handling).
  void fill_slots(PeerId from);

 private:
  void rechoke_loop(PeerId id);
  std::unordered_map<PeerId, ChokeState> states_;
};

// Original BitTorrent (§II-A): top-4 contributors by rate + one optimistic
// unchoke rotated every 30 s; the seeder rotates random interested peers.
class BitTorrentProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "BitTorrent"; }
  util::ByteCount default_piece_bytes() const override {
    return 256 * util::kKiB;
  }

 protected:
  void compute_unchokes(PeerId p, ChokeState& st) override;
};

// PropShare [11]: upload bandwidth split proportionally to last-round
// contributions, with a ~20% exploration budget for newcomers.
class PropShareProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "PropShare"; }
  util::ByteCount default_piece_bytes() const override {
    return 256 * util::kKiB;
  }

 protected:
  void compute_unchokes(PeerId p, ChokeState& st) override;
};

// Random BitTorrent (§IV-I): all bandwidth goes to random unchokes.
class RandomBitTorrentProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "RandomBT"; }
  util::ByteCount default_piece_bytes() const override {
    return 256 * util::kKiB;
  }

 protected:
  void compute_unchokes(PeerId p, ChokeState& st) override;
};

}  // namespace tc::protocols
