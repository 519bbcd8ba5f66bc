// Flow control / adaptive receiver selection (paper §II-D2).
//
// Each peer locally counts, per neighbor, the encrypted pieces it uploaded
// that have not yet been reciprocated ("pending"). A neighbor at or over
// the cap k is neither selected to receive pieces nor designated as payee
// until its pending count drops below k. Uncooperative neighbors (free-
// riders) accumulate pending pieces and end up banned — with no central
// monitoring or information sharing.
//
// The counts are a flat list of (neighbor, count) pairs holding only
// neighbors with something outstanding: pending() is a short linear scan,
// and resolving a count to zero swaps the last pair into its place. A
// second list holds only the neighbors at or over the cap, kept as counts
// cross it, so eligible() scans the few banned neighbors, not every count.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "src/net/peer_id.h"

namespace tc::core {

using net::PeerId;

class PendingTracker {
 public:
  explicit PendingTracker(int cap);

  // An encrypted piece to `n` is now awaiting reciprocation.
  void add(PeerId n);
  // `n` reciprocated one piece (or the obligation died with the tx).
  void resolve(PeerId n);

  int pending(PeerId n) const {
    const std::size_t i = index_of(n);
    return i < counts_.size() ? counts_[i].second : 0;
  }
  // Paper: banned while pending >= k... "more than k" with k = 2 buffered;
  // we use pending < cap as eligibility, i.e. at most `cap` outstanding.
  bool eligible(PeerId n) const {
    return std::find(at_cap_.begin(), at_cap_.end(), n) == at_cap_.end();
  }
  // The neighbours at the cap (not eligible()), in no particular order.
  // A view of the tracker's own list: add() and resolve() change it.
  const std::vector<PeerId>& at_cap() const { return at_cap_; }

 private:
  // Position of n's pair in counts_, or counts_.size() if none.
  std::size_t index_of(PeerId n) const {
    std::size_t i = 0;
    while (i < counts_.size() && counts_[i].first != n) ++i;
    return i;
  }

  int cap_;
  // Every count > 0, in no particular order.
  std::vector<std::pair<PeerId, int>> counts_;
  // Every neighbour whose count is >= cap_, in no particular order.
  std::vector<PeerId> at_cap_;
};

}  // namespace tc::core
