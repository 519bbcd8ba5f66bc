#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace tc::sim {

Simulator::EventId Simulator::schedule_at(SimTime t, std::function<void()> fn) {
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
  if (live_ > peak_heap_) peak_heap_ = live_;
  return EventId{id};
}

Simulator::EventId Simulator::schedule_in(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  // Unknown, already fired, or already cancelled: nothing to do. The heap
  // key stays behind as a tombstone and is skipped on pop.
  if (!id.valid() || id.id >= next_id_ || done(id.id)) return false;
  mark_done(id.id);
  ++cancelled_pending_;
  ++cancelled_total_;
  return true;
}

Simulator::Key Simulator::pop_key() {
  std::pop_heap(keys_.begin(), keys_.begin() + live_, FiresLater{});
  return keys_[--live_];
}

void Simulator::drop_tombstones() {
  while (live_ > 0 && done(keys_.front().id)) {
    fns_[pop_key().slot] = nullptr;  // releases the cancelled captures
    --cancelled_pending_;
  }
}

bool Simulator::step() {
  drop_tombstones();
  if (live_ == 0) return false;
  const Key k = pop_key();
  assert(k.t >= now_);
  now_ = k.t;
  mark_done(k.id);
  ++processed_;
  // Moved out before the call: the callback may schedule, which can grow
  // fns_ or hand this slot to a new event.
  const std::function<void()> fn = std::move(fns_[k.slot]);
  fn();
  return true;
}

void Simulator::run(SimTime until) {
  for (;;) {
    drop_tombstones();  // to see the real next event time
    if (live_ == 0 || keys_.front().t > until) break;
    step();
  }
}

}  // namespace tc::sim
