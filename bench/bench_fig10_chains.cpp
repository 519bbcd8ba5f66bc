// Figure 10: number of active chains over time, no free-riders.
// (a) flash crowd (paper: 600 leechers) — chains climb until the fastest
//     bandwidth class finishes, then decay in a saw-tooth as each class
//     departs; (b) trace-driven — chains track the active-leecher count.
//
// The census series comes from obs::ChainView: each run records chain
// trace events (kChainKinds) and the series is reconstructed offline,
// replacing the registry-side accounting the bench used to read.
#include "bench/common.h"
#include "src/obs/chain_view.h"

namespace {

// Per-panel state filled by the run's setup/inspect hooks.
struct Census {
  std::vector<std::pair<double, std::size_t>> leecher_series;
  std::vector<tc::obs::CensusPoint> census;
  std::size_t total_created = 0, by_seeder = 0, by_leechers = 0;
  double mean_terminated_length = 0;
  std::uint64_t lost_events = 0;
};

// Self-rescheduling sampler: records the active-leecher count every 5 s.
struct Sampler {
  tc::bt::Swarm* s;
  std::vector<std::pair<double, std::size_t>>* out;
  void operator()() const {
    out->emplace_back(s->simulator().now(), s->active_leecher_count());
    s->simulator().schedule_in(5.0, *this);
  }
};

void attach(tc::bench::RunSpec& spec, Census& out) {
  using namespace tc;
  spec.trace.enabled = true;
  spec.trace.kind_mask = obs::kChainKinds;
  // Roughly 3 chain events per transaction (~one tx per piece delivery)
  // plus census ticks; generously padded so the ring never wraps (a run
  // whose ring did wrap is refused, see refuse_lost_events).
  spec.trace.ring_capacity =
      spec.config.piece_count() * (spec.config.leecher_count + 8) * 3 + 65536;
  spec.setup = [&out](bt::Swarm& swarm) {
    swarm.simulator().schedule_in(5.0, Sampler{&swarm, &out.leecher_series});
  };
  spec.inspect = [&out](bt::Swarm& swarm, bt::Protocol&, bench::RunRecord&) {
    const auto view = obs::ChainView::reconstruct(swarm.obs()->events());
    out.lost_events = bench::lost_chain_events(swarm, view);
    out.census = view.census();
    out.total_created = view.total_created();
    out.by_seeder = view.created_by_seeder();
    out.by_leechers = view.created_by_leechers();
    out.mean_terminated_length = view.mean_terminated_length();
  };
}

void print_census(const char* label, const Census& c,
                  const tc::util::Flags& flags) {
  using namespace tc;
  util::AsciiTable t({"time (s)", "active chains", "active leechers"});
  const std::size_t rows = 14;
  for (std::size_t k = 0; k < rows; ++k) {
    const std::size_t i =
        c.census.empty() ? 0 : k * (c.census.size() - 1) / (rows - 1);
    if (i >= c.census.size()) break;
    std::size_t leechers = 0;
    for (const auto& [time, n] : c.leecher_series) {
      if (time <= c.census[i].t) leechers = n;
    }
    t.add_row({util::format_double(c.census[i].t, 0),
               std::to_string(c.census[i].active_chains),
               std::to_string(leechers)});
  }
  std::cout << label << "\n";
  bench::print_table(t, flags);
  std::cout << "chains created: " << c.total_created << " (seeder "
            << c.by_seeder << ", leechers " << c.by_leechers
            << "), mean terminated length "
            << util::format_double(c.mean_terminated_length, 1) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "leechers", "indirect-only", "seed"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 600 : 150));
  const bool indirect_only = flags.get_bool("indirect-only");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::banner("Figure 10 (active chains over time)",
                "(a) flash crowd: chains climb, then saw-tooth down as each "
                "bandwidth class finishes; (b) trace: chains track the "
                "active-leecher population");

  auto cfg = bench::base_config(n, file_mb * util::kMiB, seed);
  cfg.allow_direct_reciprocity = !indirect_only;

  Census flash, traced;
  bench::Sweep a(cfg), b(cfg);
  a.protocol("tchain").for_each(
      [&](bench::RunSpec& s) { attach(s, flash); });
  b.protocol("tchain").for_each([&](bench::RunSpec& s) {
    trace::RedHatTraceArrivals::Params p;
    p.peak_rate = full ? 0.5 : 0.4;
    p.decay_seconds = full ? 36'000 : 2'000;
    util::Rng arr_rng(11);
    s.arrivals = trace::RedHatTraceArrivals(p).generate(n, arr_rng);
    attach(s, traced);
  });
  bench::run(bench::concat({&a, &b}), flags);
  bench::refuse_lost_events(flash.lost_events + traced.lost_events);

  print_census("(a) flash crowd", flash, flags);
  print_census("(b) trace-driven arrivals", traced, flags);
  return 0;
}
