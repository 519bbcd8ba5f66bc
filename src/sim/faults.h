// Deterministic fault injection for swarm simulations.
//
// A FaultPlan declares which failures a run should suffer — control-message
// loss and delay jitter, mid-download peer churn (graceful leaves and
// abrupt crashes), and transient upload-capacity outages. A FaultInjector
// turns the plan into concrete, reproducible decisions: it draws from its
// own seeded RNG stream (derived from, but independent of, the swarm's),
// so enabling faults never perturbs the swarm's random sequence and two
// runs with the same seed and the same plan fail identically.
//
// Everything defaults to OFF. With a default FaultPlan the injector is
// never consulted and the swarm behaves bit-identically to a build without
// this subsystem.
#pragma once

#include <cstdint>

#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace tc::sim {

struct FaultPlan {
  // --- Control plane (receipts, key releases, reassignment triggers) ------
  double control_loss = 0.0;    // P(message silently dropped), per message
  double control_jitter = 0.0;  // extra delivery delay, uniform in [0, jitter]

  // --- Churn: session durations end in departure ---------------------------
  enum class SessionKind : std::uint8_t {
    kNone,       // peers stay until they finish (the paper's model)
    kLogNormal,  // heavy-tailed sessions (measured P2P shape)
  };
  SessionKind session_kind = SessionKind::kNone;
  double mean_session = 0.0;    // seconds; the log-normal's median
  double session_sigma = 1.0;   // log-normal shape
  // Fraction of session ends that are abrupt crashes (no escrow handoff,
  // no goodbye) rather than graceful departures.
  double crash_fraction = 0.5;

  // --- Transient upload outages --------------------------------------------
  double outage_rate = 0.0;           // per-peer outages per second
  double outage_mean_duration = 5.0;  // seconds, exponential

  bool control_faults() const {
    return control_loss > 0.0 || control_jitter > 0.0;
  }
  bool churn() const {
    return session_kind != SessionKind::kNone && mean_session > 0.0;
  }
  bool outages() const { return outage_rate > 0.0; }
  bool enabled() const { return control_faults() || churn() || outages(); }
};

class FaultInjector {
 public:
  // `seed` is the swarm seed; the injector mixes it so its stream is
  // decorrelated from (and independent of) the swarm's own RNG.
  FaultInjector(const FaultPlan& plan, std::uint64_t seed);

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.enabled(); }

  // True if this control message is lost. Draws only when loss is on.
  bool drop_control();
  // Extra delivery delay for a control message. Draws only when jitter is on.
  double control_delay();

  // Exponential gap until a peer's next upload outage, and its length.
  // Only meaningful (and only drawing) when plan().outages().
  double outage_gap();
  double outage_duration();

  // True if a churn session should end in an abrupt crash.
  bool crash_on_exit();

  // Raw stream for callers that sample plan-driven models themselves
  // (e.g. the session-duration model lives in src/trace/arrival.*).
  util::Rng& rng() { return rng_; }

  // Observability hookup (Swarm::enable_obs): injected decisions emit
  // kFaultControlDrop / kFaultControlJitter events stamped with `sim`'s
  // clock. Null trace (the default) keeps every path draw-identical.
  void set_trace(obs::Trace* trace, const Simulator* sim) {
    trace_ = trace;
    sim_ = sim;
  }

 private:
  FaultPlan plan_;
  util::Rng rng_;
  obs::Trace* trace_ = nullptr;
  const Simulator* sim_ = nullptr;
};

}  // namespace tc::sim
