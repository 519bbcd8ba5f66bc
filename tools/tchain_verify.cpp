// tchain-verify: offline protocol invariant verification of exported event
// traces (the CSVs written by --trace-csv / obs::write_event_csv).
//
//   tchain-verify trace.run0.csv [trace.run1.csv ...]
//     --dropped N       events the producer's ring dropped for this trace
//                       (record extra "obs.events.dropped"); any N > 0
//                       downgrades the verdict to UNSOUND
//     --pending-cap K   flow-control cap to check against
//     --max-findings N  findings kept/printed per trace
//
// Defaults are check::CheckerOptions{}'s.
//
// Exit code: 0 = every trace PASSed, 1 = violations found, 2 = I/O or
// parse error or unknown flag, 3 = no violations but at least one trace
// was UNSOUND.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/obs/export.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  const tc::util::Flags flags(argc, argv);
  const auto& files = flags.positional();
  if (files.empty()) {
    std::cerr << "usage: tchain-verify TRACE.csv [TRACE.csv ...] "
                 "[--dropped N] [--pending-cap K] [--max-findings N]\n";
    return 2;
  }

  const auto unknown =
      flags.unknown({"dropped", "pending-cap", "max-findings"});
  if (!unknown.empty()) {
    std::cerr << "tchain-verify: unknown flag --" << unknown.front() << "\n";
    return 2;
  }

  tc::check::CheckerOptions opts;
  opts.pending_cap = static_cast<int>(
      flags.get_int("pending-cap", opts.pending_cap));
  opts.max_findings = static_cast<std::size_t>(flags.get_int(
      "max-findings", static_cast<std::int64_t>(opts.max_findings)));
  const auto dropped =
      static_cast<std::uint64_t>(flags.get_int("dropped", 0));

  bool any_violation = false;
  bool any_unsound = false;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "tchain-verify: cannot open " << path << "\n";
      return 2;
    }
    std::vector<tc::obs::TraceEvent> events;
    try {
      events = tc::obs::read_event_csv(in);
    } catch (const std::exception& e) {
      std::cerr << "tchain-verify: " << path << ": " << e.what() << "\n";
      return 2;
    }
    const tc::check::CheckReport report =
        tc::check::check_events(events, dropped, opts);
    std::cout << path << ":\n";
    tc::check::write_report(std::cout, report, opts.max_findings);
    if (report.total_violations + report.possible_violations > 0) {
      any_violation = true;
    }
    if (!report.sound) any_unsound = true;
  }
  if (any_violation) return 1;
  return any_unsound ? 3 : 0;
}
