// Figure 9: trace-driven ("continuous stream") arrivals, free-rider
// fraction swept 0..50%. Paper: all methods similar up to ~10%
// free-riders; beyond that T-Chain clearly wins — at 50% the baselines'
// compliant completion time is ~5x T-Chain's. Completion times are
// measured over the first `measure` compliant finishers, excluding the
// first `warmup` to skip startup transients (paper: 1000 / 500).
#include <algorithm>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "seeds", "peers", "warmup", "measure"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 10 : 2));
  const std::size_t population =
      static_cast<std::size_t>(flags.get_int("peers", full ? 2000 : 300));
  const std::size_t warmup =
      static_cast<std::size_t>(flags.get_int("warmup", full ? 500 : 60));
  const std::size_t measure =
      static_cast<std::size_t>(flags.get_int("measure", full ? 500 : 120));

  bench::banner("Figure 9 (trace-driven arrivals)",
                "similar until ~10% free-riders; at 50% the baselines are "
                "~5x slower than T-Chain for compliant leechers");

  const std::vector<double> fracs = {0.0, 0.1, 0.25, 0.4, 0.5};
  const auto protos = protocols::paper_protocols();

  bench::Sweep sweep(bench::base_config(population, file_mb * util::kMiB));
  sweep.protocols(protos)
      .seeds(seeds)
      .axis("freeriders", fracs, [](bench::RunSpec& s, double frac) {
        s.config.freerider_fraction = frac;
        s.config.wait_for_freeriders = false;  // steady-state compliant focus
      })
      .for_each([&](bench::RunSpec& s) {
        // Arrivals are part of the spec and depend only on the seed, so
        // they stay identical at any --jobs level.
        trace::RedHatTraceArrivals::Params p;
        p.peak_rate = full ? 0.5 : 0.4;
        p.decay_seconds = full ? 36'000 : 3'000;
        util::Rng arr_rng(s.config.seed * 977);
        s.arrivals = trace::RedHatTraceArrivals(p).generate(population, arr_rng);
        // Steady-state window: completion times of compliant finishers
        // [warmup, warmup+measure) in finish order.
        s.inspect = [warmup, measure](bt::Swarm& swarm, bt::Protocol&,
                                      bench::RunRecord& rec) {
          std::vector<std::pair<double, double>> fin;  // (finish, duration)
          for (const auto* r : swarm.metrics().all()) {
            if (r->seeder || r->freerider || !r->finished()) continue;
            fin.emplace_back(r->finish_time, r->completion_time());
          }
          std::sort(fin.begin(), fin.end());
          util::RunningStats window;
          for (std::size_t i = warmup; i < fin.size() && i < warmup + measure;
               ++i) {
            window.add(fin[i].second);
          }
          rec.add_extra("window_mean",
                        window.count() ? window.mean() : -1.0);
        };
      });
  const auto records = bench::run(sweep, flags);

  util::AsciiTable t({"freeriders (%)", "protocol", "compliant mean (s)",
                      "ci95"});
  std::size_t i = 0;
  for (double frac : fracs) {
    for (const auto& name : protos) {
      util::RunningStats mean_s;
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto& r = records.at(i++);
        if (!r.ok) continue;
        const double w = r.extra_value("window_mean", -1.0);
        if (w >= 0) mean_s.add(w);
      }
      t.add_row({util::format_double(100 * frac, 0), name,
                 util::format_double(mean_s.mean(), 1),
                 "+-" + util::format_double(mean_s.ci95_half_width(), 1)});
    }
  }
  bench::print_table(t, flags);
  return 0;
}
