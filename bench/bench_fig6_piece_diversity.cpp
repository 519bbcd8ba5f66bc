// Figure 6: piece diversity.
// (a) The paper crawls a real BitTorrent swarm for 7 days and reports the
//     mean number of pieces differing between neighbor pairs (612 of 2808,
//     ~22%). We substitute a trace-driven simulated swarm with a crawler
//     that samples pairwise piece-set differences among the neighbors of a
//     randomly chosen peer over time (DESIGN.md §5.2).
// (b) 600 compliant leechers join holding 0..100% random initial pieces;
//     paper: completion time decreases linearly with the pre-owned
//     fraction.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  // Its sweeps go through exp::run_all, not bench::run: only the runner's
  // --jobs and --quiet and print_table's --csv apply.
  constexpr std::string_view kRunAll[] = {"jobs", "quiet", "csv"};
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "seeds", "leechers"}, kRunAll);
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 30 : 2));
  const auto opts = exp::runner_options_from_flags(flags);

  bench::banner("Figure 6 (piece diversity)",
                "(a) neighbors differ in a substantial fraction of pieces "
                "(~22% in the crawled swarm), so chains can grow; (b) "
                "completion time decreases linearly as leechers pre-own a "
                "larger fraction of pieces");

  // ---- (a) pairwise piece differences over time ---------------------------------
  {
    trace::RedHatTraceArrivals::Params p;
    p.peak_rate = full ? 0.5 : 0.3;
    p.decay_seconds = full ? 36'000 : 2'000;
    util::Rng arr_rng(7);
    auto cfg = bench::base_config(full ? 400 : 120, file_mb * util::kMiB, 1);
    auto arrivals =
        trace::RedHatTraceArrivals(p).generate(cfg.leecher_count, arr_rng);
    const double horizon = arrivals.back() * 1.2;

    util::AsciiTable t({"time (s)", "active leechers", "mean piece diff",
                        "piece diff (%)"});
    bench::Sweep sweep(cfg);
    sweep.protocol("tchain").for_each([&](bench::RunSpec& s) {
      s.arrivals = arrivals;
      // Crawler: every horizon/10, sample pairwise piece differences among
      // the neighbors of a random active leecher.
      s.setup = [&t, horizon](bt::Swarm& swarm) {
        for (int k = 1; k <= 10; ++k) {
          const double when = horizon * k / 10.0;
          swarm.simulator().schedule_at(when, [&swarm, &t, when] {
            const auto ids = swarm.active_peers();
            std::vector<bt::PeerId> leechers;
            for (auto id : ids) {
              const bt::Peer* p2 = swarm.peer(id);
              if (p2 != nullptr && !p2->seeder) leechers.push_back(id);
            }
            if (leechers.size() < 2) return;
            const bt::Peer* vantage =
                swarm.peer(leechers[swarm.rng().index(leechers.size())]);
            util::RunningStats diff;
            const auto& nbrs = vantage->neighbors;
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
              for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
                const bt::Peer* a = swarm.peer(nbrs[i]);
                const bt::Peer* b = swarm.peer(nbrs[j]);
                if (a == nullptr || b == nullptr || a->seeder || b->seeder)
                  continue;
                const auto ab = a->have.missing_from(b->have).size();
                const auto ba = b->have.missing_from(a->have).size();
                diff.add(static_cast<double>(ab + ba));
              }
            }
            if (diff.count() == 0) return;
            t.add_row(
                {util::format_double(when, 0), std::to_string(leechers.size()),
                 util::format_double(diff.mean(), 1),
                 util::format_double(
                     100.0 * diff.mean() /
                         static_cast<double>(swarm.piece_count()),
                     1)});
          });
        }
      };
    });
    exp::run_all(sweep.build(), opts);
    std::cout << "(a) crawler-style piece differences (trace-driven swarm)\n";
    bench::print_table(t, flags);
  }

  // ---- (b) initial piece fraction sweep -------------------------------------
  {
    const std::size_t leechers =
        static_cast<std::size_t>(flags.get_int("leechers", full ? 600 : 100));
    const std::vector<double> fracs = {0.0, 0.2, 0.4, 0.6, 0.8, 0.95};
    bench::Sweep sweep(bench::base_config(leechers, file_mb * util::kMiB));
    sweep.protocol("tchain")
        .seeds(seeds)
        .axis("initial", fracs, [](bench::RunSpec& s, double frac) {
          s.config.initial_piece_fraction = frac;
        });
    const auto records = exp::run_all(sweep.build(), opts);

    util::AsciiTable t({"initial pieces (%)", "mean completion (s)", "ci95"});
    std::size_t i = 0;
    for (double frac : fracs) {
      const auto p = bench::accumulate(records, i, seeds);
      t.add_row({util::format_double(100 * frac, 0),
                 util::format_double(p.compliant.mean(), 1),
                 "+-" + util::format_double(p.compliant.ci95_half_width(), 1)});
    }
    std::cout << "\n(b) effect of initial piece possession\n";
    bench::print_table(t, flags);
  }
  return 0;
}
