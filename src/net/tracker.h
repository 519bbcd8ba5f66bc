// BitTorrent-style tracker for the simulator: keeps the swarm membership
// and answers neighbor-list requests with up to kTrackerListSize randomly
// selected members. Purely a rendezvous service — it
// plays no role in incentive enforcement, matching T-Chain's
// no-trusted-third-party goal. The live runtime's tracker
// (rt::TrackerService) needs no sampling: its membership is the set of
// open announce connections.
#pragma once

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "src/net/peer_id.h"
#include "src/util/rng.h"

namespace tc::net {

// Members per neighbor list (§IV-A).
inline constexpr std::size_t kTrackerListSize = 50;

class Tracker {
 public:
  void announce(PeerId peer);
  void depart(PeerId peer);
  std::size_t size() const { return members_.size(); }

  // Up to kTrackerListSize random members, excluding the requester itself.
  // The requester need not be announced (a newcomer's first request).
  std::vector<PeerId> neighbor_list(PeerId requester, util::Rng& rng) const;

 private:
  std::unordered_set<PeerId> members_;
  // Dense mirror of members_ for O(k) sampling.
  std::vector<PeerId> dense_;
  mutable bool dense_dirty_ = false;
};

}  // namespace tc::net
