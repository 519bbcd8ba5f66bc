// The T-Chain selection rules (§II-B2, §II-D1..3), each written once for
// both drivers: the simulator's protocols::TChainProtocol and the peer
// engine core::Node. A driver supplies only what it alone knows — which
// neighbours are present, and their claimed (have ∪ in-flight) sets — and
// the flow-control cap through PendingTracker::eligible, a scan of the few
// neighbours at the cap. Nothing here allocates: every uniform choice is
// one pass through UniformPick.
#pragma once

#include <cstddef>
#include <optional>

#include "src/bt/bitfield.h"
#include "src/net/peer_id.h"
#include "src/util/rng.h"

namespace tc::core {

using net::PeerId;
using net::PieceIndex;

// Parameters both drivers share; no experiment varies them but k.
// Flow-control cap k (§II-D2): core::Node's, and the default of the
// simulator's bt::SwarmConfig::pending_cap, which Table II sweeps.
inline constexpr int kPendingCap = 2;
// Donor transactions a (quasi-)seeder keeps open to start chains: "as
// many chains as possible given its upload capacity" (footnote 3).
inline constexpr std::size_t kSeederChainSlots = 8;
// Watchdog firings a donor transaction survives (§II-B4 hardening). Each
// re-kicks the exchange; the next tears the transaction down (simulator)
// or settles its key gratis (core::Node).
inline constexpr int kTxMaxRetries = 2;

// Uniform choice over candidates offered one at a time, in one pass and
// without allocation: a reservoir of one, so the k-th offer replaces the
// choice with probability 1/k (one rng.index(k) draw per offer).
template <typename T>
class UniformPick {
 public:
  UniformPick(T none, util::Rng& rng) : none_(none), chosen_(none), rng_(rng) {}

  void offer(T candidate) {
    if (rng_.index(++seen_) == 0) chosen_ = candidate;
  }
  // Forgets every offer so far (a better class of candidate turned up).
  void reset() {
    seen_ = 0;
    chosen_ = none_;
  }
  // `none` when nothing was offered.
  T chosen() const { return chosen_; }

 private:
  T none_;
  T chosen_;
  std::size_t seen_ = 0;
  util::Rng& rng_;
};

// Uniform among the ids in `peers` that satisfy `ok`; kNoPeer if none.
template <typename Peers, typename Ok>
PeerId pick_peer(const Peers& peers, Ok&& ok, util::Rng& rng) {
  UniformPick<PeerId> pick(net::kNoPeer, rng);
  for (const PeerId n : peers) {
    if (ok(n)) pick.offer(n);
  }
  return pick.chosen();
}

// Payee designation (§II-B2). `direct` — reciprocity is on and the
// requestor holds a piece the donor needs (never true of a seeder) — makes
// the donor its own payee. Otherwise the payee is uniform among the
// *donor's* neighbours, other than donor and requestor, that `qualifies`
// (present, under the cap, payee_needs). kNoPeer means no payee exists:
// the upload goes unencrypted and the chain terminates (§II-B3).
template <typename Peers, typename Qualifies>
PeerId select_payee(PeerId donor, PeerId requestor, bool direct,
                    const Peers& donor_neighbours, Qualifies&& qualifies,
                    util::Rng& rng) {
  if (direct) return donor;
  return pick_peer(
      donor_neighbours,
      [&](PeerId n) { return n != donor && n != requestor && qualifies(n); },
      rng);
}

// The payee test (§II-B2): the candidate's claimed set lacks the piece in
// flight (forwardable even while still encrypted) or a piece the requestor
// holds decrypted. `requestor_have` is null when the donor does not know
// it. A complete candidate never passes: claimed ⊇ have.
bool payee_needs(const bt::Bitfield& candidate_claimed,
                 PieceIndex piece_in_flight,
                 const bt::Bitfield* requestor_have);

// The chain-head requestor test (§II-D3): the candidate's claimed set
// lacks a piece the donor holds. With the cap, it picks a new chain's
// first requestor through pick_peer.
bool chain_head_needs(const bt::Bitfield& candidate_claimed,
                      const bt::Bitfield& donor_have);

// Donor transactions a peer may keep open to start chains: `slots` for a
// seeder ("as many chains as possible given its upload capacity",
// footnote 3); for a leecher (§II-D3) one when it holds a piece and has no
// unmet reciprocation obligation, else none.
std::size_t chain_budget(bool seeds, std::size_t have, std::size_t unmet,
                         std::size_t slots);

// Newcomer bootstrapping piece (§II-D1): a piece the donor has that BOTH
// the requestor and the payee still need, so the requestor can reciprocate
// by simply forwarding it. Uniformly random among candidates (the one spot
// where T-Chain does not use LRF). `*_claimed` are have ∪ in-flight sets.
std::optional<PieceIndex> select_bootstrap_piece(
    const bt::Bitfield& donor_have, const bt::Bitfield& requestor_claimed,
    const bt::Bitfield& payee_claimed, util::Rng& rng);

}  // namespace tc::core
