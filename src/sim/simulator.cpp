#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace tc::sim {

namespace {
bool earlier(SimTime ta, std::uint64_t ida, SimTime tb, std::uint64_t idb) {
  return ta != tb ? ta < tb : ida < idb;
}
}  // namespace

void Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) t = now_;  // never schedule in the past
  const std::uint64_t id = next_id_++;
  if (live_ == keys_.size()) {  // no free slot: grow the slab
    keys_.push_back(Key{t, id, static_cast<std::uint32_t>(fns_.size())});
    fns_.push_back(std::move(fn));
  } else {
    Key& k = keys_[live_];
    k.t = t;
    k.id = id;
    fns_[k.slot] = std::move(fn);
  }
  ++live_;
  std::push_heap(keys_.begin(), keys_.begin() + live_, FiresLater{});
  bump_pending();
}

void Simulator::schedule_in(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  schedule_at(now_ + delay, std::move(fn));
}

Simulator::Lane Simulator::lane(SimTime delay) {
  lanes_.emplace_back().delay = std::max(delay, SimTime{0});
  return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

void Simulator::schedule_in(Lane lane, std::function<void()> fn) {
  LaneQueue& q = lanes_[lane.index];
  if (q.size == q.ring.size()) {  // full: unroll into a ring twice as big
    std::vector<LaneEvent> grown(std::max<std::size_t>(2 * q.size, 8));
    for (std::size_t i = 0; i < q.size; ++i) {
      grown[i] = std::move(q.ring[(q.head + i) & (q.size - 1)]);
    }
    q.ring = std::move(grown);
    q.head = 0;
  }
  // The ring's size is a power of two, so a mask wraps an index.
  LaneEvent& e = q.ring[(q.head + q.size) & (q.ring.size() - 1)];
  e.t = now_ + q.delay;
  e.id = next_id_++;
  e.fn = std::move(fn);
  ++q.size;
  bump_pending();
}

Simulator::Timer Simulator::add_timer(std::function<void()> fn) {
  timer_fns_.push_back(std::move(fn));
  timer_pos_.push_back(0);
  return Timer{static_cast<std::uint32_t>(timer_fns_.size() - 1)};
}

void Simulator::arm(Timer timer, SimTime t) {
  if (t < now_) t = now_;
  const Key k{t, next_id_++, timer.index};
  const std::uint32_t at = timer_pos_[timer.index];
  if (at == 0) {
    timer_heap_.push_back(k);
    sift_up(timer_heap_.size() - 1);
    bump_pending();
    return;
  }
  // Re-keyed in place: the old firing is dropped, as a cancel would.
  ++cancelled_total_;
  timer_heap_[at - 1] = k;
  sift_down(sift_up(at - 1));
}

void Simulator::disarm(Timer timer) {
  const std::uint32_t at = timer_pos_[timer.index];
  if (at == 0) return;
  ++cancelled_total_;
  --pending_;
  remove_timer_key(at - 1);
}

void Simulator::remove_timer_key(std::size_t pos) {
  timer_pos_[timer_heap_[pos].slot] = 0;
  const Key last = timer_heap_.back();
  timer_heap_.pop_back();
  if (pos == timer_heap_.size()) return;  // it was the last key
  timer_heap_[pos] = last;
  sift_down(sift_up(pos));
}

std::size_t Simulator::sift_up(std::size_t pos) {
  const Key k = timer_heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!FiresLater{}(timer_heap_[parent], k)) break;
    place(pos, timer_heap_[parent]);
    pos = parent;
  }
  place(pos, k);
  return pos;
}

void Simulator::sift_down(std::size_t pos) {
  const Key k = timer_heap_[pos];
  const std::size_t n = timer_heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && FiresLater{}(timer_heap_[child], timer_heap_[child + 1])) {
      ++child;
    }
    if (!FiresLater{}(k, timer_heap_[child])) break;
    place(pos, timer_heap_[child]);
    pos = child;
  }
  place(pos, k);
}

bool Simulator::next(Next& n) const {
  bool found = false;
  const auto consider = [&](SimTime t, std::uint64_t id, std::uint32_t queue) {
    if (!found || earlier(t, id, n.t, n.id)) n = Next{t, id, queue};
    found = true;
  };
  if (live_ > 0) consider(keys_.front().t, keys_.front().id, 0);
  if (!timer_heap_.empty()) {
    consider(timer_heap_.front().t, timer_heap_.front().id, 1);
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const LaneQueue& q = lanes_[i];
    if (q.size > 0) {
      const LaneEvent& e = q.ring[q.head];
      consider(e.t, e.id, static_cast<std::uint32_t>(2 + i));
    }
  }
  return found;
}

void Simulator::fire(const Next& n) {
  assert(n.t >= now_);
  now_ = n.t;
  ++processed_;
  --pending_;
  // Each callback is moved out before the call: it may schedule, which can
  // grow its queue's storage or hand its slot to a new event.
  if (n.queue == 0) {
    std::pop_heap(keys_.begin(), keys_.begin() + live_, FiresLater{});
    const std::uint32_t slot = keys_[--live_].slot;
    const std::function<void()> fn = std::move(fns_[slot]);
    fn();
  } else if (n.queue == 1) {
    const std::uint32_t timer = timer_heap_.front().slot;
    remove_timer_key(0);
    std::function<void()> fn = std::move(timer_fns_[timer]);
    fn();
    timer_fns_[timer] = std::move(fn);
  } else {
    LaneQueue& q = lanes_[n.queue - 2];
    const std::function<void()> fn = std::move(q.ring[q.head].fn);
    q.head = (q.head + 1) & (q.ring.size() - 1);
    --q.size;
    fn();
  }
}

bool Simulator::step() {
  Next n{};
  if (!next(n)) return false;
  fire(n);
  return true;
}

void Simulator::run(SimTime until) {
  Next n{};
  while (next(n) && n.t <= until) fire(n);
}

}  // namespace tc::sim
