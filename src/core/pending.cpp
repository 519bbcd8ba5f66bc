#include "src/core/pending.h"

#include <stdexcept>

namespace tc::core {

PendingTracker::PendingTracker(int cap) : cap_(cap) {
  if (cap < 1) throw std::invalid_argument("pending cap must be >= 1");
}

void PendingTracker::add(PeerId n) {
  const std::size_t i = index_of(n);
  if (i < counts_.size()) {
    ++counts_[i].second;
  } else {
    counts_.emplace_back(n, 1);
  }
}

void PendingTracker::resolve(PeerId n) {
  const std::size_t i = index_of(n);
  if (i == counts_.size()) return;  // idempotent
  if (--counts_[i].second == 0) {
    counts_[i] = counts_.back();
    counts_.pop_back();
  }
}

}  // namespace tc::core
