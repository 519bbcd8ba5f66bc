// Figure 11: opportunistic seeding.
// (a) Cumulative chains created by the seeder vs. by leechers in a flash
//     crowd — paper: leechers opportunistically seed heavily right after
//     startup (the seeder cannot satisfy all newcomers), then nearly stop.
// (b) Fraction of chains created by opportunistic seeding under trace
//     arrivals as the free-rider share grows — paper: more free-riders
//     terminate more chains, so leechers compensate with more
//     opportunistic seeding.
// --no-oppseed ablates the mechanism to show the utilization gap it closes.
#include "bench/common.h"
#include "src/obs/chain_view.h"

namespace {

struct ChainStats {
  std::vector<tc::obs::CensusPoint> census;
  std::uint64_t by_seeder = 0, by_leechers = 0;
  double opp_fraction = 0;
  std::uint64_t lost_events = 0;
};

// Every number comes from the obs::ChainView reconstruction of the run's
// chain trace.
void read_chains(tc::bench::RunSpec& spec, ChainStats& out) {
  spec.trace.enabled = true;
  spec.trace.kind_mask = tc::obs::kChainKinds;
  spec.trace.ring_capacity =
      spec.config.piece_count() * (spec.config.leecher_count + 8) * 3 + 65536;
  spec.inspect = [&out](tc::bt::Swarm& swarm, tc::bt::Protocol&,
                        tc::bench::RunRecord&) {
    const auto view = tc::obs::ChainView::reconstruct(swarm.obs()->events());
    out.lost_events = tc::bench::lost_chain_events(swarm, view);
    out.census = view.census();
    out.by_seeder = view.created_by_seeder();
    out.by_leechers = view.created_by_leechers();
    out.opp_fraction = view.opportunistic_fraction();
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "leechers", "no-oppseed"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 600 : 150));
  const bool oppseed = !flags.get_bool("no-oppseed");

  bench::banner("Figure 11 (opportunistic seeding)",
                "(a) a burst of leecher-created chains right after startup, "
                "then ~zero; (b) the opportunistic fraction grows with the "
                "free-rider share");

  const std::vector<double> fracs = {0.0, 0.25, 0.5};

  // Panel (a): flash crowd, seed 1. Panel (b): one run per free-rider
  // share, trace arrivals, seed 2. All through one pool.
  ChainStats flash;
  std::vector<ChainStats> traced(fracs.size());

  auto cfg_a = bench::base_config(n, file_mb * util::kMiB, 1);
  cfg_a.opportunistic_seeding = oppseed;
  bench::Sweep a(cfg_a);
  a.protocol("tchain").for_each(
      [&](bench::RunSpec& s) { read_chains(s, flash); });

  auto cfg_b = bench::base_config(n, file_mb * util::kMiB, 2);
  cfg_b.opportunistic_seeding = oppseed;
  cfg_b.wait_for_freeriders = false;
  bench::Sweep b(cfg_b);
  b.protocol("tchain").axis(
      "freeriders", fracs, [&, full](bench::RunSpec& s, double frac) {
        s.config.freerider_fraction = frac;
        trace::RedHatTraceArrivals::Params p;
        p.peak_rate = full ? 0.5 : 0.4;
        p.decay_seconds = full ? 36'000 : 2'000;
        util::Rng arr_rng(13);
        s.arrivals = trace::RedHatTraceArrivals(p).generate(n, arr_rng);
      });
  std::size_t slot = 0;
  b.for_each([&](bench::RunSpec& s) { read_chains(s, traced.at(slot++)); });

  const auto records = bench::run(bench::concat({&a, &b}), flags);
  std::uint64_t lost = flash.lost_events;
  for (const auto& t : traced) lost += t.lost_events;
  bench::refuse_lost_events(lost);

  {
    util::AsciiTable t({"time (s)", "cumulative by seeder",
                        "cumulative by leechers"});
    const auto& census = flash.census;
    const std::size_t rows = 12;
    for (std::size_t k = 0; k < rows && !census.empty(); ++k) {
      const std::size_t i = k * (census.size() - 1) / (rows - 1);
      t.add_row({util::format_double(census[i].t, 0),
                 std::to_string(census[i].cumulative_seeder),
                 std::to_string(census[i].cumulative_leecher)});
    }
    std::cout << "(a) flash crowd, opportunistic seeding "
              << (oppseed ? "ON" : "OFF (ablation)") << "\n";
    bench::print_table(t, flags);
    const auto& r = records.at(0).result;
    std::cout << "mean completion "
              << util::format_double(r.compliant_mean, 1)
              << " s, uplink utilization "
              << util::format_double(100 * r.uplink_utilization, 1) << "%\n\n";
  }
  {
    util::AsciiTable t({"freeriders (%)", "by seeder", "by leechers",
                        "opportunistic fraction"});
    for (std::size_t k = 0; k < fracs.size(); ++k) {
      t.add_row({util::format_double(100 * fracs[k], 0),
                 std::to_string(traced[k].by_seeder),
                 std::to_string(traced[k].by_leechers),
                 util::format_double(traced[k].opp_fraction, 3)});
    }
    std::cout << "(b) trace-driven arrivals\n";
    bench::print_table(t, flags);
  }
  return 0;
}
