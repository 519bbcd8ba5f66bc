#include "src/net/tracker.h"

#include <algorithm>

namespace tc::net {

void Tracker::announce(PeerId peer) {
  if (members_.insert(peer).second) dense_.push_back(peer);
}

void Tracker::depart(PeerId peer) {
  if (members_.erase(peer) > 0) dense_dirty_ = true;
}

std::vector<PeerId> Tracker::neighbor_list(PeerId requester,
                                           util::Rng& rng) const {
  if (dense_dirty_) {
    // Compact out departed members lazily so departures stay O(1).
    auto* self = const_cast<Tracker*>(this);
    self->dense_.erase(
        std::remove_if(self->dense_.begin(), self->dense_.end(),
                       [&](PeerId p) { return members_.count(p) == 0; }),
        self->dense_.end());
    self->dense_dirty_ = false;
  }

  std::vector<PeerId> out;
  const std::size_t eligible =
      dense_.size() - (members_.count(requester) ? 1 : 0);
  const std::size_t want = std::min(kTrackerListSize, eligible);
  if (want == 0) return out;
  out.reserve(want);

  if (want * 3 >= dense_.size()) {
    // Dense sample: shuffle a copy and take a prefix.
    std::vector<PeerId> pool;
    pool.reserve(dense_.size());
    for (PeerId p : dense_)
      if (p != requester) pool.push_back(p);
    rng.shuffle(pool);
    pool.resize(std::min(want, pool.size()));
    return pool;
  }

  // Sparse rejection sample: O(want) expected draws, each tested against
  // the at most kTrackerListSize members already taken.
  while (out.size() < want) {
    const PeerId p = dense_[rng.index(dense_.size())];
    if (p == requester || std::find(out.begin(), out.end(), p) != out.end())
      continue;
    out.push_back(p);
  }
  return out;
}

}  // namespace tc::net
