#include "src/core/pending.h"

#include <stdexcept>

namespace tc::core {

PendingTracker::PendingTracker(int cap) : cap_(cap) {
  if (cap < 1) throw std::invalid_argument("pending cap must be >= 1");
}

void PendingTracker::add(PeerId n) { ++counts_[n]; }

void PendingTracker::resolve(PeerId n) {
  const auto it = counts_.find(n);
  if (it == counts_.end() || it->second == 0) return;  // idempotent
  --it->second;
  if (it->second == 0) counts_.erase(it);
}

int PendingTracker::pending(PeerId n) const {
  const auto it = counts_.find(n);
  return it == counts_.end() ? 0 : it->second;
}

}  // namespace tc::core
