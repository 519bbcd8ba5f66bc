#include "src/exp/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "src/analysis/metrics.h"
#include "src/bt/swarm.h"
#include "src/check/invariants.h"
#include "src/obs/export.h"
#include "src/protocols/registry.h"

namespace tc::exp {

namespace {

using Clock = std::chrono::steady_clock;

RunResult summarize(const bt::Swarm& swarm) {
  using F = analysis::SwarmMetrics::PeerFilter;
  const auto& m = swarm.metrics();
  RunResult r;
  r.compliant_times = m.completion_times(F::kCompliant);
  r.freerider_times = m.completion_times(F::kFreeRiders);
  r.compliant_mean = r.compliant_times.mean();
  r.compliant_finished = r.compliant_times.count();
  r.compliant_unfinished = m.unfinished_count(F::kCompliant);
  r.freerider_finished = r.freerider_times.count();
  r.freerider_unfinished = m.unfinished_count(F::kFreeRiders);
  if (r.freerider_finished > 0) r.freerider_mean = r.freerider_times.mean();
  r.uplink_utilization =
      m.mean_uplink_utilization(F::kCompliant, swarm.end_time());
  r.end_time = swarm.end_time();
  r.resilience = m.resilience();
  return r;
}

// Snapshots a finished checker into the record's "check.*" extras and, on
// violations, writes the findings to stderr in one shot (single write so
// concurrent workers don't interleave).
void record_check(check::Checker& checker, const RunSpec& spec,
                  std::size_t index, RunRecord& rec) {
  const check::CheckReport& rep = checker.finish();
  rec.add_extra("check.sound", rep.sound ? 1 : 0);
  rec.add_extra("check.events", static_cast<double>(rep.events));
  rec.add_extra("check.violations", static_cast<double>(rep.total_violations));
  rec.add_extra("check.possible", static_cast<double>(rep.possible_violations));
  rec.add_extra("check.warnings", static_cast<double>(rep.warnings));
  for (std::size_t c = 0; c < check::kInvariantCount; ++c) {
    if (rep.by_class[c] == 0) continue;
    rec.add_extra(std::string("check.v.") +
                      check::invariant_name(static_cast<check::Invariant>(c)),
                  static_cast<double>(rep.by_class[c]));
  }
  if (rep.total_violations + rep.possible_violations > 0) {
    std::ostringstream os;
    os << "[check] run " << index << " (" << spec.protocol;
    if (!spec.label.empty()) os << " " << spec.label;
    os << " seed=" << spec.config.seed << "):\n";
    check::write_report(os, rep, 5);
    const std::string msg = os.str();
    std::fwrite(msg.data(), 1, msg.size(), stderr);
  }
}

}  // namespace

RunnerOptions runner_options_from_flags(const util::Flags& flags) {
  RunnerOptions opts;
  const auto jobs = flags.get_int("jobs", 0);
  opts.jobs = jobs > 0 ? static_cast<std::size_t>(jobs) : 0;
  opts.quiet = flags.get_bool("quiet");
  return opts;
}

void apply_trace_flags(std::vector<RunSpec>& specs, const util::Flags& flags) {
  const bool want_json = flags.has("trace");
  const bool want_csv = flags.has("trace-csv");
  const bool want_limit = flags.has("trace-limit");
  if (!want_json && !want_csv && !want_limit) return;

  // A bare "--trace" parses as value "true"; anything else is the prefix.
  const auto prefix = [&](const char* flag) {
    const std::string v = flags.get_string(flag, "true");
    return (v == "true" || v == "-") ? std::string("trace") : v;
  };
  const std::string json_prefix = prefix("trace");
  const std::string csv_prefix = prefix("trace-csv");
  const auto limit = flags.get_int("trace-limit", 0);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    obs::TraceConfig& t = specs[i].trace;
    if (!t.enabled) {
      // The spec had no tracing of its own: full event taxonomy.
      t.enabled = true;
      t.kind_mask = obs::kAllKinds;
    }
    if (limit > 0) t.ring_capacity = static_cast<std::size_t>(limit);
    const std::string run = ".run" + std::to_string(i);
    if (want_json) t.export_json = json_prefix + run + ".json";
    if (want_csv) t.export_csv = csv_prefix + run + ".csv";
  }
}

void apply_check_flag(std::vector<RunSpec>& specs, const util::Flags& flags) {
  if (!flags.get_bool("check")) return;
  for (RunSpec& spec : specs) spec.check = true;
}

std::uint64_t total_check_violations(const std::vector<RunRecord>& records,
                                     std::size_t* unsound) {
  std::uint64_t total = 0;
  std::size_t lossy = 0;
  for (const RunRecord& rec : records) {
    total += static_cast<std::uint64_t>(rec.extra_value("check.violations"));
    total += static_cast<std::uint64_t>(rec.extra_value("check.possible"));
    if (rec.extra_value("check.sound", 1.0) == 0.0) ++lossy;
  }
  if (unsound != nullptr) *unsound = lossy;
  return total;
}

std::size_t effective_jobs(const RunnerOptions& opts, std::size_t spec_count) {
  std::size_t jobs = opts.jobs;
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  if (jobs > spec_count) jobs = spec_count;
  return jobs == 0 ? 1 : jobs;
}

RunRecord run_one(const RunSpec& spec, std::size_t index) {
  RunRecord rec;
  rec.index = index;
  rec.protocol = spec.protocol;
  rec.label = spec.label;
  rec.seed = spec.config.seed;
  rec.tags = spec.tags;
  const auto t0 = Clock::now();
  try {
    // The checker must outlive the swarm (the swarm's Trace holds a raw
    // sink pointer), so it is declared first.
    std::unique_ptr<check::Checker> checker;
    if (spec.check) {
      check::CheckerOptions copts;
      copts.pending_cap = spec.config.pending_cap;
      checker = std::make_unique<check::Checker>(copts);
    }
    auto proto = protocols::make_protocol(spec.protocol);
    bt::Swarm swarm(spec.config, *proto, spec.arrivals);
    if (spec.trace.enabled) {
      swarm.enable_obs(spec.trace);
    } else if (checker) {
      // Checking without tracing: the sink sees every event pre-ring, so a
      // minimal throwaway ring is enough.
      obs::TraceConfig minimal;
      minimal.enabled = true;
      minimal.ring_capacity = 1;
      minimal.kind_mask = 0;
      swarm.enable_obs(minimal);
    }
    if (checker) swarm.obs()->set_sink(checker.get());
    if (spec.setup) spec.setup(swarm);
    swarm.run();
    if (checker) record_check(*checker, spec, index, rec);
    rec.result = summarize(swarm);
    rec.sim_events = swarm.simulator().events_processed();
    if (spec.inspect) spec.inspect(swarm, *proto, rec);
    if (const obs::Trace* tr = swarm.obs()) {
      for (const auto& [key, value] : tr->snapshot()) {
        rec.add_extra("obs." + key, value);
      }
      rec.add_extra("obs.sim.peak_pending",
                    static_cast<double>(swarm.simulator().peak_pending()));
      rec.add_extra("obs.sim.cancelled",
                    static_cast<double>(swarm.simulator().cancelled_total()));
      if (!spec.trace.export_json.empty() || !spec.trace.export_csv.empty()) {
        const auto events = tr->events();
        if (!spec.trace.export_json.empty()) {
          std::ofstream out(spec.trace.export_json);
          obs::write_chrome_trace(out, events);
        }
        if (!spec.trace.export_csv.empty()) {
          std::ofstream out(spec.trace.export_csv);
          obs::write_event_csv(out, events);
        }
      }
    }
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.ok = false;
    rec.error = e.what();
  } catch (...) {
    rec.ok = false;
    rec.error = "unknown exception";
  }
  rec.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return rec;
}

std::vector<RunRecord> run_all(const std::vector<RunSpec>& specs,
                               const RunnerOptions& opts) {
  std::vector<RunRecord> records(specs.size());
  if (specs.empty()) return records;

  const std::size_t jobs = effective_jobs(opts, specs.size());
  const auto t0 = Clock::now();

  if (jobs <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i)
      records[i] = run_one(specs[i], i);
  } else {
    // Work-stealing by atomic counter: each worker claims the next unrun
    // spec and writes its record into the spec's own slot, so the result
    // order is spec order no matter how threads interleave.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs.size()) return;
        records[i] = run_one(specs[i], i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (!opts.quiet) {
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    std::uint64_t events = 0;
    std::size_t failed = 0;
    for (const auto& r : records) {
      events += r.sim_events;
      if (!r.ok) ++failed;
    }
    std::fprintf(stderr,
                 "[exp] %zu runs on %zu thread%s in %.2fs "
                 "(%.3g sim events, %.3g events/s)%s",
                 records.size(), jobs, jobs == 1 ? "" : "s", wall,
                 static_cast<double>(events),
                 wall > 0 ? static_cast<double>(events) / wall : 0.0,
                 failed ? "" : "\n");
    if (failed) std::fprintf(stderr, ", %zu FAILED\n", failed);
  }
  return records;
}

}  // namespace tc::exp
