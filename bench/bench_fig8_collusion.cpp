// Figure 8: the collusion (Sybil) attack against T-Chain — all free-riders
// send false reception reports for each other. Paper: colluding
// free-riders CAN then complete, but ~40x slower than compliant leechers
// (sub-dial-up effective rate), and compliant leechers are essentially
// unaffected (compare Figures 7(a) and 8(a)).
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "seeds", "freeriders"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 16);
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 30 : 2));
  const double frac = flags.get_double("freeriders", 0.25);

  const std::vector<double> swarms = full
      ? std::vector<double>{200, 400, 600, 800, 1000}
      : std::vector<double>{50, 100, 150, 200};

  bench::banner("Figure 8 (collusion against T-Chain)",
                "with false receipts colluders complete, but 10-40x slower "
                "than compliant leechers; compliant performance unchanged "
                "vs Figure 7(a)");

  bench::Sweep sweep(bench::base_config(0, file_mb * util::kMiB));
  sweep.protocol("tchain")
      .seeds(seeds)
      .axis("swarm", swarms,
            [frac](bench::RunSpec& s, double n) {
              s.config.leecher_count = static_cast<std::size_t>(n);
              s.config.freerider_fraction = frac;
              s.config.freerider_stall_timeout = 3000.0;
            })
      .axis("collude", {0, 1}, [](bench::RunSpec& s, double c) {
        s.config.freerider_collude = c != 0;
      });
  const auto records = bench::run(sweep, flags);

  util::AsciiTable t({"swarm", "mode", "compliant mean (s)",
                      "freerider mean (s)", "freeriders done", "slowdown x"});
  std::size_t i = 0;
  for (double n : swarms) {
    for (bool collude : {false, true}) {
      const auto p = bench::accumulate(records, i, seeds);
      const double slowdown =
          p.fr_mean.count() ? p.fr_mean.mean() / p.compliant.mean() : 0.0;
      t.add_row({exp::format_axis_value(n),
                 collude ? "collusion" : "no collusion",
                 util::format_double(p.compliant.mean(), 1),
                 p.fr_mean.count() ? util::format_double(p.fr_mean.mean(), 1)
                                   : "never",
                 std::to_string(p.fr_done) + "/" + std::to_string(p.fr_total),
                 p.fr_mean.count() ? util::format_double(slowdown, 1) : "-"});
    }
  }
  bench::print_table(t, flags);
  return 0;
}
