// Flow control / adaptive receiver selection (paper §II-D2).
//
// Each peer locally counts, per neighbor, the encrypted pieces it uploaded
// that have not yet been reciprocated ("pending"). A neighbor at or over
// the cap k is neither selected to receive pieces nor designated as payee
// until its pending count drops below k. Uncooperative neighbors (free-
// riders) accumulate pending pieces and end up banned — with no central
// monitoring or information sharing.
#pragma once

#include <unordered_map>

#include "src/net/peer_id.h"

namespace tc::core {

using net::PeerId;

class PendingTracker {
 public:
  explicit PendingTracker(int cap);

  int cap() const { return cap_; }

  // An encrypted piece to `n` is now awaiting reciprocation.
  void add(PeerId n);
  // `n` reciprocated one piece (or the obligation died with the tx).
  void resolve(PeerId n);

  int pending(PeerId n) const;
  // Paper: banned while pending >= k... "more than k" with k = 2 buffered;
  // we use pending < cap as eligibility, i.e. at most `cap` outstanding.
  bool eligible(PeerId n) const { return pending(n) < cap_; }

 private:
  int cap_;
  std::unordered_map<PeerId, int> counts_;
};

}  // namespace tc::core
