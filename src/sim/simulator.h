// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, id) order. Event
// ids are minted sequentially at each schedule or arm call, so among equal
// timestamps events fire in call order (FIFO), and a run is a pure
// function of its seed.
//
// Events wait in one of three queues, and step() fires whichever front is
// first in that one order:
//  - the heap, for one-shot events at any time (schedule_at, schedule_in);
//  - re-armable timers (add_timer, arm, disarm), kept in a second heap that
//    knows each timer's position, so arm re-keys a timer in place. A re-arm
//    takes a fresh id, so it orders exactly as cancelling the old event and
//    scheduling a new one would;
//  - fixed-delay FIFO lanes (lane, schedule_in(Lane, fn)): now + delay
//    never decreases, so a lane's events are already in (time, id) order
//    and need no heap.
//
// The heap holds only trivially copyable {t, id, slot} keys, so a sift
// moves 24 bytes, never a callback. Callbacks live in a slab of
// std::function slots indexed by `slot`. keys_ and the slab have one
// entry per slot: keys_[0, live_) is the heap, and each key past it is
// one a pop left behind, whose slot is free for the next schedule. A lane
// is a ring buffer whose slots are reused the same way. A firing callback
// is moved out of its slot first, so it may schedule, add timers or re-arm
// its own timer freely; a timer's callback is moved back once it returns.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/util/units.h"

namespace tc::sim {

using util::SimTime;

class Simulator {
 public:
  // Handle to a re-armable timer. Timers live as long as the Simulator.
  struct Timer {
    std::uint32_t index;
  };
  // Handle to a fixed-delay FIFO lane. Lanes live as long as the Simulator.
  struct Lane {
    std::uint32_t index;
  };

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now).
  void schedule_at(SimTime t, std::function<void()> fn);

  // Schedules `fn` after `delay` simulated seconds (clamped to >= 0).
  void schedule_in(SimTime delay, std::function<void()> fn);

  // Adds a lane whose events fire `delay` simulated seconds (clamped to
  // >= 0) after they are scheduled.
  Lane lane(SimTime delay);
  // Schedules `fn` after `lane`'s delay; the same as schedule_in(delay, fn).
  void schedule_in(Lane lane, std::function<void()> fn);

  // Adds a disarmed timer that runs `fn` each time it fires. A timer
  // disarms as it fires; its callback may arm it again.
  Timer add_timer(std::function<void()> fn);
  // Arms `timer` to fire at absolute time `t` (>= now), re-arming it if it
  // is armed already. Either way it takes a fresh id.
  void arm(Timer timer, SimTime t);
  // Disarms `timer` if it is armed.
  void disarm(Timer timer);
  bool armed(Timer timer) const { return timer_pos_[timer.index] != 0; }

  // Runs until the queues drain or simulated time would exceed `until`.
  // Events scheduled exactly at `until` still run.
  void run(SimTime until = std::numeric_limits<SimTime>::infinity());

  // Processes a single event; returns false if every queue is empty.
  bool step();

  // Events waiting in all three queues (armed timers included).
  std::size_t pending_events() const { return pending_; }
  std::uint64_t events_processed() const { return processed_; }
  // High-water mark of pending_events(): how deep the queues ever got.
  // Surfaced as obs.sim.peak_pending by exp::run_one.
  std::size_t peak_pending() const { return peak_pending_; }
  // Re-arms and disarms of an armed timer: each drops an event that was
  // pending, as a cancel would, so processed + cancelled + pending is
  // everything ever scheduled or armed.
  std::uint64_t cancelled_total() const { return cancelled_total_; }

 private:
  struct Key {
    SimTime t;
    std::uint64_t id;    // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into fns_, or the timer's index
  };
  // std::push/pop_heap build a max-heap; "less" = fires later.
  struct FiresLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;
    }
  };
  struct LaneEvent {
    SimTime t;
    std::uint64_t id;
    std::function<void()> fn;
  };
  struct LaneQueue {
    SimTime delay = 0.0;
    std::vector<LaneEvent> ring;  // [head, head + size) mod capacity
    std::size_t head = 0;
    std::size_t size = 0;
  };
  // The queue holding the next event; `queue` is 0 for the heap, 1 for
  // the timers and 2 + i for lane i.
  struct Next {
    SimTime t;
    std::uint64_t id;
    std::uint32_t queue;
  };

  // Finds the next event; false if every queue is empty.
  bool next(Next& n) const;
  // Pops the event `n` names, advances the clock to it and runs it.
  void fire(const Next& n);
  void bump_pending() {
    if (++pending_ > peak_pending_) peak_pending_ = pending_;
  }
  // Timer heap, keeping timer_pos_ in step: takes the key at `pos` out
  // (its timer disarmed), and moves the key at `pos` towards the root
  // (returning where it stopped) or the leaves until it is in order. A
  // key that moved up needs no sift down, so sift_down(sift_up(pos))
  // places a key whose time went either way.
  void remove_timer_key(std::size_t pos);
  std::size_t sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void place(std::size_t pos, const Key& k) {
    timer_heap_[pos] = k;
    timer_pos_[k.slot] = static_cast<std::uint32_t>(pos + 1);
  }

  SimTime now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::vector<Key> keys_;  // [0, live_): the heap; the rest: free slots
  std::size_t live_ = 0;
  std::vector<std::function<void()>> fns_;  // callback slab
  std::vector<Key> timer_heap_;             // min-heap of armed timers
  std::vector<std::uint32_t> timer_pos_;  // heap index + 1; 0: disarmed
  std::vector<std::function<void()>> timer_fns_;
  std::vector<LaneQueue> lanes_;
  std::size_t pending_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace tc::sim
