// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, id) order. Event
// ids are minted sequentially, so among equal timestamps they fire in
// scheduling order (FIFO), and a run is a pure function of its seed.
//
// The heap holds only trivially copyable {t, id, slot} keys, so a sift
// moves 24 bytes, never a callback. Callbacks live in a slab of
// std::function slots indexed by `slot`. keys_ and the slab have one
// entry per slot: keys_[0, live_) is the heap, and each key past it is
// one a pop left behind, whose slot is free for the next schedule. A
// firing callback is moved out of its slot first, so it may schedule
// freely. Cancellation is O(1): a flat bitset indexed by id tombstones
// cancelled (or already-fired) events, and tombstoned keys are skipped on
// pop, which releases the cancelled callback's captures. The bitset grows
// one bit per event ever scheduled (~1.2 MiB per 10M events); the slab is
// as large as the queue ever got.
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
  struct EventId {
    std::uint64_t id = 0;
    bool valid() const { return id != 0; }
    bool operator==(const EventId&) const = default;
  };

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now).
  EventId schedule_at(SimTime t, std::function<void()> fn);

  // Schedules `fn` after `delay` simulated seconds (clamped to >= 0).
  EventId schedule_in(SimTime delay, std::function<void()> fn);

  // Returns true if the event existed and was cancelled before firing.
  bool cancel(EventId id);

  // Runs until the queue drains or simulated time would exceed `until`.
  // Events scheduled exactly at `until` still run.
  void run(SimTime until = std::numeric_limits<SimTime>::infinity());

  // Processes a single event; returns false if the queue is empty.
  bool step();

  std::size_t pending_events() const { return live_ - cancelled_pending_; }
  std::uint64_t events_processed() const { return processed_; }
  // High-water mark of the heap (tombstones included): how deep the event
  // queue ever got. Surfaced as obs.sim.peak_pending by exp::run_one.
  std::size_t peak_pending() const { return peak_heap_; }
  std::uint64_t cancelled_total() const { return cancelled_total_; }

 private:
  struct Key {
    SimTime t;
    std::uint64_t id;    // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into fns_
  };
  // std::push/pop_heap build a max-heap; "less" = fires later.
  struct FiresLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.id > b.id;
    }
  };

  // A set bit means the event already fired or was cancelled; its heap
  // key (if still queued) is a tombstone.
  bool done(std::uint64_t id) const {
    const std::uint64_t word = id >> 6;
    return word < done_bits_.size() &&
           (done_bits_[word] >> (id & 63)) & 1u;
  }
  void mark_done(std::uint64_t id) {
    const std::uint64_t word = id >> 6;
    if (word >= done_bits_.size()) done_bits_.resize(word + 1, 0);
    done_bits_[word] |= std::uint64_t{1} << (id & 63);
  }
  // Pops the heap's top key; it stays at keys_[live_], its slot free.
  Key pop_key();
  // Pops every tombstone off the top of the heap, freeing its slot.
  void drop_tombstones();

  SimTime now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::vector<Key> keys_;  // [0, live_): the heap; the rest: free slots
  std::size_t live_ = 0;
  std::vector<std::function<void()>> fns_;  // callback slab
  std::vector<std::uint64_t> done_bits_;
  std::size_t cancelled_pending_ = 0;  // tombstones still in the heap
  std::size_t peak_heap_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace tc::sim
