// Figure 12: fairness CDF — fairness factor = pieces downloaded / pieces
// uploaded per compliant leecher (last 500 finishers, trace arrivals).
// Paper: (a) without free-riders all four methods are fair (CDF
// concentrated at 1.0), T-Chain/FairTorrent tightest; (b) with 25%
// free-riders only T-Chain stays concentrated at 1 — the others diverge.
#include <algorithm>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(flags, {"full", "file-mb", "peers", "last"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);
  const std::size_t population =
      static_cast<std::size_t>(flags.get_int("peers", full ? 1500 : 250));
  const std::size_t last_n =
      static_cast<std::size_t>(flags.get_int("last", full ? 500 : 120));

  bench::banner("Figure 12 (fairness factor CDF)",
                "(a) all methods fair without free-riders; (b) with 25% "
                "free-riders only T-Chain stays concentrated at factor 1");

  const std::vector<double> fracs = {0.0, 0.25};
  const auto protos = protocols::paper_protocols();

  bench::Sweep sweep(bench::base_config(population, file_mb * util::kMiB, 3));
  sweep.protocols(protos)
      .axis("freeriders", fracs,
            [](bench::RunSpec& s, double frac) {
              s.config.freerider_fraction = frac;
              s.config.wait_for_freeriders = false;
            })
      .for_each([&](bench::RunSpec& s) {
        trace::RedHatTraceArrivals::Params p;
        p.peak_rate = full ? 1.0 : 0.8;
        p.decay_seconds = full ? 36'000 : 4'000;
        util::Rng arr_rng(17);
        s.arrivals =
            trace::RedHatTraceArrivals(p).generate(population, arr_rng);
        // Fairness percentiles from the last `last_n` compliant finishers;
        // infinities (downloaded without uploading) clamp to the chart edge.
        s.inspect = [last_n](bt::Swarm& swarm, bt::Protocol&,
                             bench::RunRecord& rec) {
          auto d = swarm.metrics().fairness_factors(last_n);
          if (d.empty()) return;
          util::Distribution clamped;
          std::size_t in_band = 0;
          for (double x : d.samples()) {
            const double v = std::min(x, 2.5);
            clamped.add(v);
            if (v >= 0.8 && v <= 1.25) ++in_band;
          }
          rec.add_extra("fair_p10", clamped.percentile(0.10));
          rec.add_extra("fair_p25", clamped.percentile(0.25));
          rec.add_extra("fair_median", clamped.median());
          rec.add_extra("fair_p75", clamped.percentile(0.75));
          rec.add_extra("fair_p90", clamped.percentile(0.90));
          rec.add_extra("fair_in_band",
                        static_cast<double>(in_band) /
                            static_cast<double>(clamped.count()));
        };
      });
  const auto records = bench::run(sweep, flags);

  std::size_t i = 0;
  for (double frac : fracs) {
    util::AsciiTable t({"protocol", "p10", "p25", "median", "p75", "p90",
                        "frac in [0.8,1.25]"});
    for (const auto& name : protos) {
      const auto& r = records.at(i++);
      if (!r.ok || r.extra_value("fair_median", -1.0) < 0) {
        t.add_row({name, "-", "-", "-", "-", "-", "-"});
        continue;
      }
      t.add_row({name, util::format_double(r.extra_value("fair_p10", 0), 2),
                 util::format_double(r.extra_value("fair_p25", 0), 2),
                 util::format_double(r.extra_value("fair_median", 0), 2),
                 util::format_double(r.extra_value("fair_p75", 0), 2),
                 util::format_double(r.extra_value("fair_p90", 0), 2),
                 util::format_double(r.extra_value("fair_in_band", 0), 2)});
    }
    std::cout << (frac == 0.0 ? "(a) no free-riders"
                              : "\n(b) 25% free-riders")
              << "\n";
    bench::print_table(t, flags);
  }
  return 0;
}
