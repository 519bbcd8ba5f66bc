#include "src/core/pending.h"

#include <stdexcept>

namespace tc::core {

PendingTracker::PendingTracker(int cap) : cap_(cap) {
  if (cap < 1) throw std::invalid_argument("pending cap must be >= 1");
}

void PendingTracker::add(PeerId n) {
  const std::size_t i = index_of(n);
  int count = 1;
  if (i < counts_.size()) {
    count = ++counts_[i].second;
  } else {
    counts_.emplace_back(n, 1);
  }
  if (count == cap_) at_cap_.push_back(n);
}

void PendingTracker::resolve(PeerId n) {
  const std::size_t i = index_of(n);
  if (i == counts_.size()) return;  // idempotent
  const int count = --counts_[i].second;
  if (count == cap_ - 1) {
    // Just dropped below the cap: eligible again.
    *std::find(at_cap_.begin(), at_cap_.end(), n) = at_cap_.back();
    at_cap_.pop_back();
  }
  if (count == 0) {
    counts_[i] = counts_.back();
    counts_.pop_back();
  }
}

}  // namespace tc::core
