// Leecher arrival models used by the paper's evaluation:
//  - flash crowd: all leechers join within the first 10 seconds (§IV-A);
//  - RedHat-9-like trace: a synthetic stand-in for the RedHat 9 tracker
//    trace [28] the paper replays (see DESIGN.md §5 Substitutions) —
//    release-day surge followed by exponentially decaying arrival rate
//    with diurnal modulation.
//
// The session-duration (churn) model lives here too: how long a leecher
// stays before leaving, finished or not. The paper assumes peers stay to
// completion; measured swarms do not, so the fault-injection layer
// (src/sim/faults.*) pairs an arrival model with a session model to drive
// mid-download departures.
#pragma once

#include <cstddef>
#include <vector>

#include "src/util/rng.h"
#include "src/util/units.h"

namespace tc::trace {

using util::SimTime;

// Flash crowd (§IV-A): `count` join times uniform in [0, 10 s), sorted.
std::vector<SimTime> flash_crowd_arrivals(std::size_t count, util::Rng& rng);

// Non-homogeneous Poisson process whose rate decays exponentially from a
// release-day peak, modulated by a diurnal cycle:
//   lambda(t) = peak * exp(-t / decay) * (1 + diurnal * sin(2*pi*t/86400))
// Arrivals are drawn by thinning. Defaults approximate the published
// RedHat 9 swarm's shape (most joins in the first days, long tail).
class RedHatTraceArrivals {
 public:
  struct Params {
    double peak_rate = 0.5;       // peers/second at release
    double decay_seconds = 36'000; // e-folding time of interest
    double diurnal_amplitude = 0.3;
    double floor_rate = 0.002;    // long-tail trickle
  };

  RedHatTraceArrivals() : p_() {}
  explicit RedHatTraceArrivals(Params p) : p_(p) {}
  // Join times (seconds, non-decreasing) for `count` leechers.
  std::vector<SimTime> generate(std::size_t count, util::Rng& rng) const;

  double rate_at(SimTime t) const;

 private:
  Params p_;
};

// --- Session-duration (churn) model ----------------------------------------

// Heavy-tailed sessions: most peers leave early, a few stay very long —
// the shape tracker measurements consistently report. `median_seconds` is
// exp(mu); `sigma` controls the tail weight.
class LogNormalSessions {
 public:
  LogNormalSessions(SimTime median_seconds, double sigma);
  // How long the peer stays in the swarm from its join (seconds, > 0).
  SimTime duration(util::Rng& rng) const;

 private:
  double mu_;
  double sigma_;
};

}  // namespace tc::trace
