// Shared harness for the figure/table reproduction benches, built on the
// src/exp/ experiment runner (declarative sweeps, thread-pool execution).
//
// Every bench accepts (fig6, whose sweeps skip run(), only --full, --csv,
// --jobs and --quiet of these):
//   --full        paper-scale parameters (slow; the paper used 128 MiB
//                 files, swarms up to 1000+, 30 seeds)
//   --csv         machine-readable table output
//   --jobs N      worker threads (default: all cores; byte-identical
//                 output at any level)
//   --records-csv / --records-json [PATH|-]
//                 dump the raw per-run RunRecords as CSV / JSON
//   --timing      include wall-clock columns in the record dump (breaks
//                 byte-identity across --jobs levels; off by default)
//   --trace[=PREFIX], --trace-csv[=PREFIX], --trace-limit N
//                 per-run obs event tracing: Chrome trace-event JSON
//                 (load PREFIX.run<i>.json in Perfetto) / raw event CSV /
//                 ring capacity (see exp::apply_trace_flags)
//   --check       verify every run online against the protocol invariant
//                 catalogue (src/check); violations are reported on stderr
//                 and the bench exits 2 without printing its tables
// plus bench-specific sweeps, most of them --seeds N (runs per data
// point) and --file-mb M (shared file size). A bench refuses any other
// flag (refuse_unknown_flags). Scaled defaults are chosen so each bench
// finishes in tens of seconds on one core while preserving the paper's
// qualitative shape (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/metrics.h"
#include "src/bt/swarm.h"
#include "src/exp/runner.h"
#include "src/obs/chain_view.h"
#include "src/protocols/registry.h"
#include "src/trace/arrival.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace tc::bench {

using F = analysis::SwarmMetrics::PeerFilter;
using exp::RunRecord;
using exp::RunSpec;
using exp::Sweep;

// The flags run() and print_table() read.
inline constexpr std::string_view kHarnessFlags[] = {
    "csv",         "jobs",  "quiet",  "trace",       "trace-csv",
    "trace-limit", "check", "timing", "records-csv", "records-json"};

// Exits 2, naming the flag, if `flags` holds one that neither the bench
// (`own`) nor `harness` reads: a misspelt or unsupported flag must not
// run the defaults silently. Call it before any work.
inline void refuse_unknown_flags(
    const util::Flags& flags, std::initializer_list<std::string_view> own,
    std::span<const std::string_view> harness = kHarnessFlags) {
  for (const std::string& name : flags.unknown(own)) {
    if (std::find(harness.begin(), harness.end(), name) != harness.end())
      continue;
    std::cerr << "unknown flag --" << name << "; this bench reads";
    for (const std::string_view f : own) std::cerr << " --" << f;
    for (const std::string_view f : harness) std::cerr << " --" << f;
    std::cerr << "\n";
    std::exit(2);
  }
}

// Base config shared by the paper benches. Piece size is left at its
// default here: Sweep::build() sets it per protocol (§IV-A), or pin it
// with Sweep::pin_piece_bytes().
inline bt::SwarmConfig base_config(std::size_t leechers,
                                   util::ByteCount file_bytes,
                                   std::uint64_t seed = 1) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = leechers;
  cfg.file_bytes = file_bytes;
  cfg.seed = seed;
  cfg.max_sim_time = 300'000.0;
  return cfg;
}

// The "Optimal" line of Figure 3 (Kumar/Ross bound) for the heterogeneous
// leecher classes, assigned round-robin as the simulator does.
inline double optimal_time(const bt::SwarmConfig& cfg) {
  std::vector<double> ups;
  ups.reserve(cfg.leecher_count);
  for (std::size_t i = 0; i < cfg.leecher_count; ++i) {
    ups.push_back(util::kbps_to_bytes_per_sec(
        bt::kLeecherUploadKbps[i % bt::kLeecherUploadKbps.size()]));
  }
  return analysis::optimal_completion_time(
      static_cast<double>(cfg.file_bytes),
      util::kbps_to_bytes_per_sec(bt::kSeederUploadKbps), ups);
}

// Per-data-point aggregation: consumes the `seeds` consecutive records
// starting at records[i] (seeds are the innermost sweep axis, so the
// repetitions of one data point are contiguous). Failed runs are skipped
// and counted.
struct PointStats {
  util::RunningStats compliant;  // compliant mean completion times
  util::RunningStats uplink;     // uplink utilization (0..1)
  util::RunningStats fr_mean;    // freerider mean times (finished runs only)
  std::size_t fr_done = 0, fr_total = 0;
  std::size_t failed = 0;
};

inline PointStats accumulate(const std::vector<RunRecord>& records,
                             std::size_t& i, std::size_t seeds) {
  PointStats p;
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto& r = records.at(i++);
    if (!r.ok) {
      ++p.failed;
      continue;
    }
    p.compliant.add(r.result.compliant_mean);
    p.uplink.add(r.result.uplink_utilization);
    if (r.result.freerider_mean >= 0) p.fr_mean.add(r.result.freerider_mean);
    p.fr_done += r.result.freerider_finished;
    p.fr_total += r.result.freerider_finished + r.result.freerider_unfinished;
  }
  return p;
}

// Concatenates the specs of several sweeps (multi-panel figures run all
// their panels through one pool) and re-indexes labels-preserving.
inline std::vector<RunSpec> concat(std::initializer_list<const Sweep*> sweeps) {
  std::vector<RunSpec> specs;
  for (const Sweep* s : sweeps) {
    auto part = s->build();
    for (auto& p : part) specs.push_back(std::move(p));
  }
  return specs;
}

// Runs the specs with --jobs/--quiet from the flags, honouring the shared
// tracing flags (--trace / --trace-csv / --trace-limit), and dumps raw
// records if --records-csv / --records-json were given.
inline std::vector<RunRecord> run(std::vector<RunSpec> specs,
                                  const util::Flags& flags) {
  exp::apply_trace_flags(specs, flags);
  exp::apply_check_flag(specs, flags);
  const auto records =
      exp::run_all(specs, exp::runner_options_from_flags(flags));
  if (flags.get_bool("check")) {
    std::size_t unsound = 0;
    const std::uint64_t violations =
        exp::total_check_violations(records, &unsound);
    if (violations > 0) {
      std::cerr << "[check] " << violations
                << " invariant violation(s) across " << records.size()
                << " run(s)";
      if (unsound > 0) std::cerr << " (" << unsound << " run(s) unsound)";
      std::cerr << "\n";
      std::exit(2);
    }
    if (unsound > 0) {
      std::cerr << "[check] warning: " << unsound
                << " run(s) had lossy verification windows (UNSOUND)\n";
    }
  }
  const bool timing = flags.get_bool("timing");
  for (const char* kind : {"records-csv", "records-json"}) {
    if (!flags.has(kind)) continue;
    const std::string dest = flags.get_string(kind, "-");
    const bool json = std::string(kind) == "records-json";
    if (dest == "-" || dest == "true") {
      json ? exp::write_json(std::cout, records, timing)
           : exp::write_csv(std::cout, records, timing);
    } else {
      std::ofstream out(dest);
      json ? exp::write_json(out, records, timing)
           : exp::write_csv(out, records, timing);
    }
  }
  return records;
}

inline std::vector<RunRecord> run(const Sweep& sweep,
                                  const util::Flags& flags) {
  return run(sweep.build(), flags);
}

// Chain events a ChainView replay of `swarm`'s trace is missing: those the
// ring overwrote plus those whose chain start it overwrote.
inline std::uint64_t lost_chain_events(const bt::Swarm& swarm,
                                       const obs::ChainView& view) {
  return swarm.obs()->ring().dropped() + view.orphan_events();
}

// Figures 5, 10 and 11 print only what the trace holds, so a lossy trace
// would print a truncated series. Such a bench is refused the way --check
// refuses a violation: a message on stderr and exit 2, before any table is
// printed.
inline void refuse_lost_events(std::uint64_t lost) {
  if (lost == 0) return;
  std::cerr << "[trace] " << lost
            << " trace event(s) lost to ring wraparound; refusing to print "
               "a truncated series (raise --trace-limit)\n";
  std::exit(2);
}

inline void print_table(const util::AsciiTable& t, const util::Flags& flags) {
  if (flags.get_bool("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
}

// Paper expectation banner: printed above each bench's measured output so
// the terminal shows claim vs. measurement side by side.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "=== " << id << " ===\n"
            << "Paper: " << claim << "\n\n";
}

}  // namespace tc::bench
