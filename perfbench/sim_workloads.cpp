// Simulator workloads: a fixed set of swarm specs (the run's "swarm set",
// made from --seed) executed through exp::run_one, repeated until the time
// budget is spent. Every repeat must serialize byte-identically to the
// first, and the first pass's RunRecord CSV is the run's digest.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "perfbench/common.h"
#include "perfbench/layers.h"
#include "src/bt/swarm.h"
#include "src/crypto/sha256.h"
#include "src/exp/runner.h"
#include "src/protocols/registry.h"

namespace perfbench {

namespace {

using tc::exp::RunRecord;
using tc::exp::RunSpec;

struct SimWorkload {
  std::vector<std::string> protocols;
  std::size_t leechers = 0;
  tc::util::ByteCount file_bytes = 0;
  double freerider_fraction = 0.0;
  tc::sim::FaultPlan faults;
  double tx_timeout = 0.0;
  std::uint64_t seeds = 1;  // swarm seeds per set (each runs every protocol)
};

SimWorkload sim_workload(const std::string& name, bool smoke) {
  SimWorkload w;
  if (name == "sim-flash-tchain") {
    // Clean flash crowd, T-Chain only: every sim layer on the hot path.
    w.protocols = {"tchain"};
    w.leechers = smoke ? 20 : 400;
    w.file_bytes = (smoke ? 2 : 16) * tc::util::kMiB;
    w.seeds = smoke ? 1 : 3;
  } else if (name == "sim-attack-churn") {
    // The four paper protocols under free-riders, control loss, crash
    // churn and upload outages.
    w.protocols = tc::protocols::paper_protocols();
    w.leechers = smoke ? 20 : 50;
    w.file_bytes = (smoke ? 2 : 16) * tc::util::kMiB;
    w.freerider_fraction = 0.25;
    w.faults.control_loss = 0.10;
    w.faults.control_jitter = 0.02;
    w.faults.session_kind = tc::sim::FaultPlan::SessionKind::kLogNormal;
    w.faults.mean_session = 300.0;
    w.faults.session_sigma = 1.0;
    w.faults.crash_fraction = 0.5;
    w.faults.outage_rate = 0.002;
    w.faults.outage_mean_duration = 10.0;
    w.tx_timeout = 15.0;
    w.seeds = smoke ? 1 : 6;
  } else {
    throw std::invalid_argument("unknown sim workload " + name);
  }
  return w;
}

// The swarm set of --seed s: swarm seeds (s-1)*K+1 .. s*K, so distinct
// workload seeds never share a swarm.
std::vector<RunSpec> build_specs(const SimWorkload& w, std::uint64_t seed) {
  tc::bt::SwarmConfig base;
  base.leecher_count = w.leechers;
  base.file_bytes = w.file_bytes;
  base.max_sim_time = 300'000.0;
  base.freerider_fraction = w.freerider_fraction;
  base.faults = w.faults;
  base.tx_timeout = w.tx_timeout;
  tc::exp::Sweep sweep(base);
  sweep.protocols(w.protocols).seeds(w.seeds, (seed - 1) * w.seeds + 1);
  return sweep.build();
}

// Deterministic facts about one finished swarm, read in the inspect hook.
struct Facts {
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_pending = 0;
  double done_s = 0.0;  // last compliant finish, simulated seconds
  std::vector<double> completion_s;  // compliant leechers
  std::uint64_t leecher_pieces = 0;
  std::uint64_t freerider_finished = 0;
  bool survivors_finished = true;
};

Facts read_facts(tc::bt::Swarm& swarm) {
  Facts f;
  const tc::sim::Simulator& sim = swarm.simulator();
  f.events = sim.events_processed();
  f.cancelled = sim.cancelled_total();
  f.scheduled = f.events + f.cancelled + sim.pending_events();
  f.peak_pending = sim.peak_pending();
  for (const auto* r : swarm.metrics().all()) {
    if (r->seeder) continue;
    f.leecher_pieces += static_cast<std::uint64_t>(r->pieces_downloaded);
    if (r->freerider) {
      if (r->finished()) ++f.freerider_finished;
      continue;
    }
    if (r->finished()) {
      f.done_s = std::max(f.done_s, r->finish_time);
      f.completion_s.push_back(r->completion_time());
    } else if (r->depart_time < 0) {
      f.survivors_finished = false;  // stayed to the end, never finished
    }
  }
  return f;
}

struct Sample {
  double setup_s = 0.0;  // make_protocol + Swarm construction
  double run_s = 0.0;    // Swarm::run (+ the runner's summary)
  double wall_s = 0.0;   // the whole exp::run_one call
  double cpu_s = 0.0;
  double probe_s = 0.0;  // probe_seconds() right after the call
};

struct Timed {
  RunRecord rec;
  Sample sample;
  Facts facts;
};

// One spec through exp::run_one, timed from its hooks: setup fires after
// construction, inspect right after the run.
Timed run_timed(RunSpec spec, std::size_t index) {
  Timed out;
  Clock::time_point t_setup, t_inspect;
  spec.setup = [&t_setup](tc::bt::Swarm&) { t_setup = Clock::now(); };
  spec.inspect = [&](tc::bt::Swarm& swarm, tc::bt::Protocol&, RunRecord&) {
    t_inspect = Clock::now();
    out.facts = read_facts(swarm);
  };
  const double cpu0 = thread_cpu_seconds();
  const auto t0 = Clock::now();
  out.rec = tc::exp::run_one(spec, index);
  out.sample.wall_s = seconds_since(t0);
  out.sample.cpu_s = thread_cpu_seconds() - cpu0;
  if (out.rec.ok) {
    out.sample.setup_s = std::chrono::duration<double>(t_setup - t0).count();
    out.sample.run_s =
        std::chrono::duration<double>(t_inspect - t_setup).count();
  }
  out.sample.probe_s = probe_seconds();
  return out;
}

// Standalone set-up: make_protocol + Swarm construction, never run.
double construct_seconds(const RunSpec& spec) {
  const auto t0 = Clock::now();
  auto proto = tc::protocols::make_protocol(spec.protocol);
  tc::bt::Swarm swarm(spec.config, *proto, spec.arrivals);
  return seconds_since(t0);
}

std::string records_csv(const std::vector<RunRecord>& records) {
  std::ostringstream os;
  tc::exp::write_csv(os, records, /*include_timing=*/false);
  return os.str();
}

std::string hex_prefix(const tc::crypto::Digest256& d, std::size_t bytes) {
  std::string s;
  char buf[3];
  for (std::size_t i = 0; i < bytes; ++i) {
    std::snprintf(buf, sizeof buf, "%02x", d[i]);
    s += buf;
  }
  return s;
}

bool record_ok(const Timed& t) {
  if (!t.rec.ok || !t.facts.survivors_finished) return false;
  if (t.rec.extra_value("check.sound", 1.0) == 0.0) return false;
  return t.rec.extra_value("check.violations") +
             t.rec.extra_value("check.possible") ==
         0.0;
}

// Mean flows per uploader while it uploads anything, from the piece-plane
// events of a traced run (Little's law over each uploader's busy time).
double mean_fanout(const std::vector<tc::obs::TraceEvent>& events) {
  struct Up {
    int active = 0;
    double since = 0.0;
  };
  std::unordered_map<tc::net::PeerId, Up> ups;
  double flow_s = 0.0, busy_s = 0.0;
  for (const auto& e : events) {
    int delta = 0;
    if (e.kind == tc::obs::EventKind::kPieceSent) {
      delta = 1;
    } else if (e.kind == tc::obs::EventKind::kPieceDelivered ||
               e.kind == tc::obs::EventKind::kPieceAborted) {
      delta = -1;
    } else {
      continue;
    }
    Up& u = ups[e.a];
    if (u.active > 0) {
      flow_s += u.active * (e.t - u.since);
      busy_s += e.t - u.since;
    }
    u.since = e.t;
    u.active = std::max(0, u.active + delta);
  }
  return busy_s > 0.0 ? flow_s / busy_s : 1.0;
}

// Per spec, every repeat's sample of each timing.
struct SpecTimes {
  std::vector<double> setup_s, run_s, wall_s, cpu_s;
};

struct Pass {
  std::vector<Timed> runs;
};

// Runs the whole swarm set once; `patch` adjusts each spec first.
template <typename Patch>
Pass run_pass(const std::vector<RunSpec>& specs, Patch&& patch) {
  Pass p;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunSpec spec = specs[i];
    patch(spec);
    p.runs.push_back(run_timed(std::move(spec), i));
  }
  return p;
}

std::vector<RunRecord> records_of(const Pass& p) {
  std::vector<RunRecord> out;
  for (const auto& t : p.runs) out.push_back(t.rec);
  return out;
}

}  // namespace

Outcome run_sim_workload(const Options& opts) {
  const SimWorkload w = sim_workload(opts.workload, opts.smoke);
  const std::vector<RunSpec> specs = build_specs(w, opts.seed);
  Outcome out;
  const auto start = Clock::now();

  // The untraced passes: end-to-end numbers, digest, determinism gate.
  std::vector<SpecTimes> times(specs.size());
  std::vector<double> probes;
  std::string first_csv;
  Pass first;
  std::size_t passes = 0;
  constexpr int kExtraSetups = 9;
  for (;;) {
    Pass p = run_pass(specs, [](RunSpec&) {});
    const std::string csv = records_csv(records_of(p));
    // A repeat that serializes differently from the first pass is as wrong
    // as a crash: the simulator is a pure function of its spec.
    const bool same = passes == 0 || csv == first_csv;
    if (!same) {
      out.notes.push_back("determinism: pass " + std::to_string(passes) +
                          " differs from pass 0");
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Timed& t = p.runs[i];
      ++out.attempted;
      if (!same || !record_ok(t)) {
        ++out.failed;
        continue;
      }
      SpecTimes& st = times[i];
      st.setup_s.push_back(t.sample.setup_s);
      for (int r = 0; r < kExtraSetups; ++r) {
        st.setup_s.push_back(construct_seconds(specs[i]));
      }
      st.run_s.push_back(t.sample.run_s);
      st.wall_s.push_back(t.sample.wall_s);
      st.cpu_s.push_back(t.sample.cpu_s);
      probes.push_back(t.sample.probe_s);
    }
    if (passes == 0) {
      first_csv = csv;
      first = std::move(p);
    }
    ++passes;
    const double elapsed = seconds_since(start);
    const double per_pass = elapsed / static_cast<double>(passes);
    if (opts.trace || elapsed + per_pass > opts.seconds) break;
  }

  std::uint64_t sim_events = 0;
  for (const auto& t : first.runs) sim_events += t.facts.events;
  out.notes.push_back(
      "digest " + opts.workload + ": " +
      hex_prefix(tc::crypto::sha256(first_csv), 16) +
      " sim.events=" + std::to_string(sim_events) + " swarms=" +
      std::to_string(specs.size()) + " passes=" + std::to_string(passes));

  if (!opts.trace) {
    // Each spec's timing is the median of its passes; the workload's value
    // is the mean over the swarm set (sums for rates), scaled to a host on
    // which the probe takes kProbeNominalSeconds. Other tenants slow the
    // host by up to half, for seconds to minutes, and a slow spell can
    // cover a whole run. The fastest pass was steadier than the median
    // only while a run held three passes or fewer.
    std::vector<double> setup, wall, cpu, completion;
    double run_total = 0.0, done_total = 0.0, pieces = 0.0, events = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (times[i].wall_s.empty()) continue;
      const Facts& f = first.runs[i].facts;
      setup.push_back(median(times[i].setup_s));
      wall.push_back(median(times[i].wall_s));
      cpu.push_back(median(times[i].cpu_s));
      run_total += median(times[i].run_s);
      events += static_cast<double>(f.events);
      done_total += f.done_s;
      pieces += static_cast<double>(f.leecher_pieces);
      completion.insert(completion.end(), f.completion_s.begin(),
                        f.completion_s.end());
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, wall.size()));
    const double host =
        probes.empty() ? 1.0 : median(probes) / kProbeNominalSeconds;
    out.notes.push_back("host " + opts.workload + ": probe median " +
                        std::to_string(host * kProbeNominalSeconds) +
                        " s, unscaled wall_s " + std::to_string(mean(wall)));
    out.add("setup_s", mean(setup) / host, "s");
    out.add("wall_s", mean(wall) / host, "s");
    out.add("cpu_s", mean(cpu) / host, "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("events_per_s", run_total > 0 ? events * host / run_total : 0.0,
            "1/s");
    out.add("swarm_done_s", done_total / n, "s");
    out.add("leecher_done_p50_s", median(completion), "s");
    out.add("pieces_per_s", done_total > 0 ? pieces / done_total : 0.0, "1/s");
    return out;
  }

  // --- Traced run: two rounds of untraced, traced and checked passes, then
  // the protocol timing wrapper and the standalone per-call probes. Each
  // swarm counts with its faster pass of each kind, so host drift between
  // passes does not pass for tracing or checking cost. --------------------
  const auto trace_on = [](RunSpec& s) {
    s.trace.enabled = true;
    s.trace.kind_mask = tc::obs::kAllKinds;
    s.trace.ring_capacity = std::size_t{1} << 20;
  };
  const auto check_on = [](RunSpec& s) { s.check = true; };
  const Pass& plain = first;
  const Pass traced = run_pass(specs, trace_on);
  const Pass checked = run_pass(specs, check_on);
  const Pass plain2 = run_pass(specs, [](RunSpec&) {});
  const Pass traced2 = run_pass(specs, trace_on);
  const Pass checked2 = run_pass(specs, check_on);
  const auto fastest_wall = [](const Pass& a, const Pass& b,
                               const std::string& protocol = "") {
    double s = 0.0;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
      if (protocol.empty() || a.runs[i].rec.protocol == protocol) {
        s += std::min(a.runs[i].sample.wall_s, b.runs[i].sample.wall_s);
      }
    }
    return s;
  };
  std::vector<double> fanouts;
  // The fan-out needs the event stream, read outside the timed pass.
  {
    RunSpec spec = specs.front();
    spec.trace.enabled = true;
    spec.trace.kind_mask = tc::obs::kAllKinds;
    spec.trace.ring_capacity = std::size_t{1} << 22;
    spec.inspect = [&fanouts](tc::bt::Swarm& swarm, tc::bt::Protocol&,
                              RunRecord&) {
      fanouts.push_back(mean_fanout(swarm.obs()->events()));
    };
    tc::exp::run_one(spec, 0);
  }

  double proto_s = 0.0, proto_run_s = 0.0;
  std::uint64_t proto_calls = 0;
  for (const RunSpec& spec : specs) {
    auto inner = tc::protocols::make_protocol(spec.protocol);
    TimingProtocol timing(*inner);
    tc::bt::Swarm swarm(spec.config, timing, spec.arrivals);
    const auto t0 = Clock::now();
    swarm.run();
    proto_run_s += seconds_since(t0);
    proto_s += timing.seconds();
    proto_calls += timing.calls();
  }

  for (const Pass* p : std::initializer_list<const Pass*>{&traced, &checked}) {
    for (const Timed& t : p->runs) {
      ++out.attempted;
      if (!record_ok(t)) ++out.failed;
    }
  }

  // Aggregates over the swarm set.
  double events = 0, scheduled = 0, cancelled = 0, peak = 0, dropped = 0,
         crashes = 0, exp_overhead = 0;
  for (const Timed& t : plain.runs) {
    events += static_cast<double>(t.facts.events);
    scheduled += static_cast<double>(t.facts.scheduled);
    cancelled += static_cast<double>(t.facts.cancelled);
    peak = std::max(peak, static_cast<double>(t.facts.peak_pending));
    dropped += static_cast<double>(t.rec.result.resilience.control_dropped);
    crashes += static_cast<double>(t.rec.result.resilience.crashes);
    exp_overhead += t.sample.wall_s - t.sample.setup_s - t.sample.run_s;
  }
  const auto traced_sum = [&](const std::string& key,
                              const std::string& protocol = "") {
    double s = 0;
    for (const Timed& t : traced.runs) {
      if (protocol.empty() || t.rec.protocol == protocol) {
        s += t.rec.extra_value(key);
      }
    }
    return s;
  };
  double check_events = 0, fr_done = 0;
  for (const Timed& t : checked.runs) {
    check_events += t.rec.extra_value("check.events");
  }
  for (const Timed& t : plain.runs) {
    if (t.rec.protocol == "tchain") {
      fr_done += static_cast<double>(t.facts.freerider_finished);
    }
  }
  std::size_t max_pieces = 0;
  for (const RunSpec& s : specs) {
    max_pieces = std::max(max_pieces, s.config.piece_count());
  }
  const double fanout = fanouts.empty() ? 1.0 : fanouts.front();
  const auto fanout_n =
      static_cast<std::size_t>(std::max(1.0, fanout + 0.5));
  const double n = static_cast<double>(specs.size());
  const double plain_wall = fastest_wall(plain, plain2);

  out.add("fail_share",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "share");
  out.add("sim.events", events, "count");
  out.add("sim.peak_pending", peak, "count");
  out.add("sim.queue_ns_per_event",
          queue_ns_per_event(static_cast<std::size_t>(peak)), "ns");
  out.add("sim.bw_ns_per_flow", bw_ns_per_flow(fanout_n), "ns");
  out.add("sim.cancelled_share", scheduled > 0 ? cancelled / scheduled : 0.0,
          "share");
  out.add("sim.control_dropped", dropped, "count");
  out.add("sim.crashes", crashes, "count");
  out.add("bt.lrf_ns", lrf_ns(max_pieces), "ns");
  const double sent = traced_sum("obs.events.piece-sent");
  out.add("bt.useful_piece_share",
          sent > 0 ? traced_sum("obs.events.piece-granted") / sent : 0.0,
          "share");
  out.add("proto.share", proto_run_s > 0 ? proto_s / proto_run_s : 0.0,
          "share");
  out.add("proto.callbacks", static_cast<double>(proto_calls), "count");
  for (const char* name : {"bittorrent", "propshare", "fairtorrent", "tchain"}) {
    double k = 0;
    for (const RunSpec& s : specs) k += s.protocol == name ? 1 : 0;
    out.add(std::string("proto.") + name + ".wall_s",
            k > 0 ? fastest_wall(plain, plain2, name) / k : 0.0, "s");
  }
  out.add("tchain.tx_open", traced_sum("obs.events.tx-open", "tchain"),
          "count");
  out.add("tchain.chain_start", traced_sum("obs.events.chain-start", "tchain"),
          "count");
  out.add("tchain.tx_timeouts", traced_sum("obs.events.tx-timeout", "tchain"),
          "count");
  out.add("tchain.keys_escrowed",
          traced_sum("obs.events.key-escrowed", "tchain"), "count");
  out.add("tchain.freerider_done", fr_done, "count");
  out.add("obs.trace_overhead",
          plain_wall > 0 ? fastest_wall(traced, traced2) / plain_wall - 1.0
                         : 0.0,
          "share");
  out.add("obs.events_recorded", traced_sum("obs.events.recorded"), "count");
  out.add("check.overhead",
          plain_wall > 0 ? fastest_wall(checked, checked2) / plain_wall - 1.0
                         : 0.0,
          "share");
  out.add("check.events", check_events, "count");
  out.add("exp.overhead_s", exp_overhead / n, "s");
  out.notes.push_back("layers " + opts.workload + ": fanout=" +
                      std::to_string(fanout) + " pieces=" +
                      std::to_string(max_pieces));
  return out;
}

}  // namespace perfbench
