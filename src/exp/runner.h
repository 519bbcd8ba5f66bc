// Parallel experiment runner.
//
// Executes a list of RunSpecs on a pool of worker threads. The contract:
//
//  * Isolation — every run constructs its own Protocol (via
//    protocols::make_protocol) and its own Swarm; nothing is shared between
//    runs, so scheme state can never leak across seeds (the bug the old
//    bench/common.h run_swarm(cfg, proto&) harness invited).
//  * Determinism — results come back indexed by spec order regardless of
//    thread interleaving, and each run is a pure function of its spec, so
//    --jobs 8 output is byte-identical to --jobs 1.
//  * Fault containment — an exception inside one run produces a failed
//    RunRecord (ok=false, error=what()) and never kills the sweep.
#pragma once

#include <cstddef>
#include <vector>

#include "src/exp/results.h"
#include "src/exp/spec.h"
#include "src/util/flags.h"

namespace tc::exp {

struct RunnerOptions {
  // Worker threads; 0 = std::thread::hardware_concurrency(). 1 runs inline
  // on the calling thread (no pool).
  std::size_t jobs = 0;
  // Suppress the stderr progress/throughput summary. stdout is never
  // written by the runner, so reports stay byte-clean either way.
  bool quiet = false;
};

// Reads the shared runner flags: --jobs N (default 0 = all cores),
// --quiet.
RunnerOptions runner_options_from_flags(const util::Flags& flags);

// Plumbs the shared tracing flags into `specs`:
//   --trace[=PREFIX]      enable obs tracing on every spec and write a
//                         Chrome trace-event JSON (Perfetto-loadable) per
//                         run to PREFIX.run<i>.json (default prefix
//                         "trace"). Specs that already enabled tracing
//                         keep their kind mask; others get kAllKinds.
//   --trace-csv[=PREFIX]  also write the raw event stream per run to
//                         PREFIX.run<i>.csv.
//   --trace-limit N       ring capacity in events (default 1<<20).
// Without any of these flags the specs are left untouched.
void apply_trace_flags(std::vector<RunSpec>& specs, const util::Flags& flags);

// Plumbs the shared --check flag into `specs`: sets RunSpec::check on every
// spec so each run is verified online against the protocol invariant
// catalogue (src/check/invariants.h). Without the flag the specs are left
// untouched.
void apply_check_flag(std::vector<RunSpec>& specs, const util::Flags& flags);

// Sums "check.violations" (and, for unsound runs, "check.possible") across
// records; `unsound` (optional) receives the number of runs whose
// verification window lost events. Records without check extras count 0.
std::uint64_t total_check_violations(const std::vector<RunRecord>& records,
                                     std::size_t* unsound = nullptr);

// The number of threads `opts` resolves to for `spec_count` runs.
std::size_t effective_jobs(const RunnerOptions& opts, std::size_t spec_count);

// Executes one spec synchronously: fresh protocol + swarm, setup hook,
// run, summarize, inspect hook. Exceptions become a failed record.
RunRecord run_one(const RunSpec& spec, std::size_t index = 0);

// Executes every spec and returns records in spec order.
std::vector<RunRecord> run_all(const std::vector<RunSpec>& specs,
                               const RunnerOptions& opts = {});

}  // namespace tc::exp
