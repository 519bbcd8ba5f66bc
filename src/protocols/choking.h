// Shared machinery for the baseline protocols. BaselineProtocol holds what
// every baseline repeats: the per-peer period loop, the interested-neighbour
// walk and PeerId-indexed state tables. ChokingProtocol adds rate-based
// unchoking (original BitTorrent, PropShare, Random BitTorrent, EigenTrust):
// per-round contribution accounting, the seeder's random rotation and the
// per-unchoked-neighbor upload loop. Subclasses only decide who a leecher
// unchokes and with what bandwidth weight.
#pragma once

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/bt/protocol.h"
#include "src/bt/swarm.h"

namespace tc::protocols {

using bt::PeerId;
using bt::PieceIndex;

class BaselineProtocol : public bt::Protocol {
 public:
  // BitTorrent's 256 KiB piece (§IV-A); FairTorrent overrides it.
  util::ByteCount default_piece_bytes() const override {
    return 256 * util::kKiB;
  }
  // Starts the peer's period loop: on_period runs 0.1 s after the join,
  // then every kRechokePeriod while the peer is active.
  void on_peer_join(PeerId id) override;

 protected:
  virtual void on_period(PeerId id) = 0;

  // Calls f(n), in neighbour order, for every neighbour n of `p` that is
  // active, not a seeder and needs a piece `p` has. Allocates nothing.
  template <class F>
  void for_each_interested(const bt::Peer& p, F&& f) const {
    for (PeerId n : p.neighbors) {
      const bt::Peer* np = swarm_->peer(n);
      if (np != nullptr && np->active && !np->seeder &&
          np->requested.interested_in(p.have)) {
        f(n);
      }
    }
  }

  // Grows a PeerId-indexed table to hold `id`. Called only where a peer
  // first appears, never while a caller holds a reference into the table;
  // a departure resets the entry instead of erasing it.
  template <class T>
  static void fit(std::vector<T>& table, PeerId id) {
    if (id >= table.size()) table.resize(id + 1);
  }

  static double at_or_zero(const std::unordered_map<PeerId, double>& m,
                           PeerId n) {
    const auto it = m.find(n);
    return it == m.end() ? 0.0 : it->second;
  }

 private:
  void schedule_period(PeerId id, double delay);
};

class ChokingProtocol : public BaselineProtocol {
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
  static double score(const ChokeState& st, PeerId n) {
    return at_or_zero(st.recv_cur, n) + at_or_zero(st.recv_prev, n);
  }

  // Decides a leecher's unchoke set for this round into the cleared
  // st.unchoked. `interested` is in neighbour order.
  virtual void compute_unchokes(ChokeState& st,
                                std::vector<PeerId>& interested) = 0;

  // The seeder's rule (every peer's in Random BitTorrent): shuffle the
  // interested neighbours and unchoke the first kUnchokeSlots + 1.
  void unchoke_random(ChokeState& st, std::vector<PeerId>& interested);

  // Unchokes the kUnchokeSlots interested neighbours with the highest
  // key(n), ties in neighbour order.
  template <class Key>
  static void unchoke_top(ChokeState& st,
                          const std::vector<PeerId>& interested, Key key) {
    std::vector<std::pair<double, PeerId>> ranked;
    ranked.reserve(interested.size());
    for (PeerId n : interested) ranked.emplace_back(key(n), n);
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; i < ranked.size() && i < bt::kUnchokeSlots; ++i)
      st.unchoked[ranked[i].second] = 1.0;
  }

  // A uniform draw among the interested neighbours still choked that pass
  // `ok`; kNoPeer, with no draw, when there is none.
  template <class Ok>
  PeerId pick_choked(const ChokeState& st,
                     const std::vector<PeerId>& interested, Ok ok) {
    std::vector<PeerId> pool;
    for (PeerId n : interested)
      if (!st.unchoked.count(n) && ok(n)) pool.push_back(n);
    return pool.empty() ? net::kNoPeer : pool[swarm_->rng().index(pool.size())];
  }

  void on_period(PeerId id) override;

 private:
  void rechoke(PeerId id);
  // Starts an upload to every unchoked neighbor without one in flight.
  void upload_to_unchoked(PeerId id, ChokeState& st);
  void try_start_upload(PeerId from, PeerId to, double weight);

  std::vector<ChokeState> states_;
};

// Original BitTorrent (§II-A): top-4 contributors by rate + one optimistic
// unchoke rotated every 30 s; the seeder rotates random interested peers.
class BitTorrentProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "BitTorrent"; }

 protected:
  void compute_unchokes(ChokeState& st,
                        std::vector<PeerId>& interested) override;
};

// PropShare [11]: upload bandwidth split proportionally to last-round
// contributions, with a ~20% exploration budget for newcomers.
class PropShareProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "PropShare"; }

 protected:
  void compute_unchokes(ChokeState& st,
                        std::vector<PeerId>& interested) override;
};

// Random BitTorrent (§IV-I): all bandwidth goes to random unchokes.
class RandomBitTorrentProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "RandomBT"; }

 protected:
  void compute_unchokes(ChokeState& st,
                        std::vector<PeerId>& interested) override {
    unchoke_random(st, interested);
  }
};

}  // namespace tc::protocols
