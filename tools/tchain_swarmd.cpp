// tchain-swarmd: a verified localhost T-Chain swarm. Spins up a tracker
// plus N peer nodes (node 1 seeds) over real loopback TCP, runs the live
// protocol to completion, prints per-peer download times, and verifies
// the run's full event trace against the protocol invariant catalogue.
//
//   tchain-swarmd [-n PEERS] [--pieces N] [--piece-kb KB] [--seed S]
//                 [--deadline SECONDS] [--watchdog SECONDS]
//                 [--trace-csv FILE] [--trace-json FILE] [--quiet]
//
// Defaults are rt::SwarmOptions{}'s. --watchdog is the donor's
// per-transaction receipt timeout; the protocol parameters (k, seeder
// chain slots, watchdog retries) are core/policy.h's constants. After the
// wall time, the summary prints the seconds from the last leecher's
// completion to the stop and the tx-retry and tx-timeout counts by cause,
// then the engine's rt.* counters summed over the swarm (rt.advances:
// Node::advance() calls).
//
// Exit code: 0 = every leecher completed and the checker PASSed,
// 1 = a peer failed to complete before the deadline, 2 = invariant
// violations (or an unsound trace), 3 = setup error or unknown flag.
#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "src/check/invariants.h"
#include "src/obs/export.h"
#include "src/rt/swarm.h"
#include "src/util/flags.h"

namespace {

// One line: seconds from the last leecher's completion to the stop, then
// tx-retry and tx-timeout counts by cause (read from the event snapshot).
void print_settlement(std::ostream& os, const tc::rt::SwarmResult& res) {
  using tc::obs::EventKind;
  using tc::obs::RetryCause;
  double last = 0.0;
  for (const tc::rt::PeerStat& p : res.peers) {
    if (!p.seeder) last = std::max(last, p.finish_seconds);
  }
  constexpr std::size_t kCauses = 3;
  std::array<std::size_t, kCauses> retry{};
  std::array<std::size_t, kCauses> timeout{};
  for (const tc::obs::TraceEvent& e : res.events) {
    if (e.aux >= kCauses) continue;
    if (e.kind == EventKind::kTxRetry) ++retry[e.aux];
    if (e.kind == EventKind::kTxTimeout) ++timeout[e.aux];
  }
  const auto by_cause = [&os](const char* kind,
                              const std::array<std::size_t, kCauses>& n) {
    os << kind;
    for (std::size_t c = 0; c < kCauses; ++c) {
      os << ' ' << tc::obs::retry_cause_name(static_cast<RetryCause>(c))
         << '=' << n[c];
    }
  };
  os << "settle: " << res.wall_seconds - last
     << " s from last leecher to stop; ";
  by_cause("tx-retry", retry);
  os << "; ";
  by_cause("tx-timeout", timeout);
  os << "\n";
}

// One line: every rt.* registry counter, summed over the swarm's nodes.
void print_counters(std::ostream& os, const tc::rt::SwarmResult& res) {
  os << "counters:";
  for (const auto& [name, value] : res.metrics) {
    if (name.rfind("rt.", 0) == 0) {
      os << ' ' << name << '=' << static_cast<std::uint64_t>(value);
    }
  }
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const tc::util::Flags flags(argc, argv);
  if (flags.has("help") || flags.has("h")) {
    std::cout << "usage: tchain-swarmd [-n PEERS] [--pieces N] "
                 "[--piece-kb KB] [--seed S]\n"
                 "                     [--deadline SECONDS] "
                 "[--watchdog SECONDS]\n"
                 "                     [--trace-csv FILE] "
                 "[--trace-json FILE] [--quiet]\n";
    return 0;
  }
  const auto unknown =
      flags.unknown({"h", "help", "n", "pieces", "piece-kb", "seed",
                     "deadline", "watchdog", "trace-csv", "trace-json",
                     "quiet"});
  if (!unknown.empty()) {
    std::cerr << "tchain-swarmd: unknown flag --" << unknown.front()
              << " (--help lists the flags)\n";
    return 3;
  }

  tc::rt::SwarmOptions opts;
  opts.peers = static_cast<std::size_t>(
      flags.get_int("n", static_cast<std::int64_t>(opts.peers)));
  opts.piece_count =
      static_cast<std::uint32_t>(flags.get_int("pieces", opts.piece_count));
  opts.piece_bytes = static_cast<std::uint32_t>(
      flags.get_int("piece-kb", opts.piece_bytes / 1024) * 1024);
  opts.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(opts.seed)));
  opts.deadline_seconds = flags.get_double("deadline", opts.deadline_seconds);
  opts.watchdog_seconds = flags.get_double("watchdog", opts.watchdog_seconds);
  const bool quiet = flags.get_bool("quiet");

  if (opts.peers < 2 || opts.piece_count == 0 || opts.piece_bytes == 0) {
    std::cerr << "tchain-swarmd: need at least 2 peers and a non-empty "
                 "file\n";
    return 3;
  }

  tc::rt::SwarmResult res;
  try {
    res = tc::rt::run_local_swarm(opts);
  } catch (const std::exception& e) {
    std::cerr << "tchain-swarmd: " << e.what() << "\n";
    return 3;
  }

  if (!quiet) {
    std::cout << "swarm: " << opts.peers << " peers, " << opts.piece_count
              << " pieces x " << opts.piece_bytes / 1024
              << " KiB, seed " << opts.seed << "\n";
    for (const tc::rt::PeerStat& p : res.peers) {
      std::cout << "  peer " << p.id << (p.seeder ? " (seeder)" : "")
                << ": ";
      if (p.seeder) {
        std::cout << "serving\n";
      } else if (p.complete) {
        std::cout << "complete at " << p.finish_seconds << " s\n";
      } else {
        std::cout << "INCOMPLETE\n";
      }
    }
    std::cout << "wall: " << res.wall_seconds << " s, events: "
              << res.events_recorded << " (" << res.events_dropped
              << " dropped by ring)\n";
    print_settlement(std::cout, res);
    print_counters(std::cout, res);
    tc::check::write_report(std::cout, res.check);
  }

  const std::string csv = flags.get_string("trace-csv", "");
  if (!csv.empty()) {
    std::ofstream out(csv);
    if (!out) {
      std::cerr << "tchain-swarmd: cannot write " << csv << "\n";
      return 3;
    }
    tc::obs::write_event_csv(out, res.events);
  }
  const std::string json = flags.get_string("trace-json", "");
  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "tchain-swarmd: cannot write " << json << "\n";
      return 3;
    }
    tc::obs::write_chrome_trace(out, res.events);
  }

  if (!res.check.clean()) return 2;
  if (!res.all_complete) return 1;
  return 0;
}
