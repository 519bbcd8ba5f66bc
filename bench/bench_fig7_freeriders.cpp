// Figure 7: flash crowd with 25% free-riders mounting the large-view
// exploit + whitewashing. (a) compliant leechers' completion times —
// paper: BitTorrent/PropShare/FairTorrent degrade by ~28-33%, T-Chain is
// unaffected; (b) free-riders' completion times — paper: they succeed in
// all three baselines (FairTorrent fastest via whitewashing) and NOT A
// SINGLE free-rider completes under T-Chain.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "seeds", "freeriders", "swarm"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 16);
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 30 : 2));
  const double frac = flags.get_double("freeriders", 0.25);

  std::vector<double> swarms = full
      ? std::vector<double>{200, 400, 600, 800, 1000}
      : std::vector<double>{50, 100, 150, 200};
  if (flags.has("swarm")) {
    swarms = {static_cast<double>(flags.get_int("swarm", 100))};
  }

  bench::banner("Figure 7 (25% free-riders, flash crowd)",
                "compliant: baselines degrade ~30%, T-Chain protected; "
                "free-riders: succeed in baselines (FairTorrent fastest), "
                "zero complete under T-Chain");

  const auto protos = protocols::paper_protocols();

  // Two sweeps through one pool: the attacked swarm and a same-seed
  // no-free-rider baseline for the degradation column.
  bench::Sweep attacked(bench::base_config(0, file_mb * util::kMiB));
  attacked.protocols(protos)
      .seeds(seeds)
      .axis("swarm", swarms, [frac](bench::RunSpec& s, double n) {
        s.config.leecher_count = static_cast<std::size_t>(n);
        s.config.freerider_fraction = frac;
        s.set_tag("freeriders", exp::format_axis_value(frac));
      });
  bench::Sweep baseline(bench::base_config(0, file_mb * util::kMiB));
  baseline.protocols(protos)
      .seeds(seeds)
      .axis("swarm", swarms, [](bench::RunSpec& s, double n) {
        s.config.leecher_count = static_cast<std::size_t>(n);
        s.set_tag("freeriders", "0");
      });

  const auto records = bench::run(bench::concat({&attacked, &baseline}), flags);

  util::AsciiTable t({"swarm", "protocol", "compliant mean (s)", "ci95",
                      "freerider mean (s)", "freeriders done",
                      "no-freerider mean (s)"});
  std::size_t i = 0;                          // walks the attacked records
  std::size_t j = swarms.size() * protos.size() * seeds;  // baseline records
  for (double n : swarms) {
    for (const auto& name : protos) {
      const auto a = bench::accumulate(records, i, seeds);
      const auto b = bench::accumulate(records, j, seeds);
      t.add_row({exp::format_axis_value(n), name,
                 util::format_double(a.compliant.mean(), 1),
                 "+-" + util::format_double(a.compliant.ci95_half_width(), 1),
                 a.fr_mean.count() ? util::format_double(a.fr_mean.mean(), 1)
                                   : "never",
                 std::to_string(a.fr_done) + "/" + std::to_string(a.fr_total),
                 util::format_double(b.compliant.mean(), 1)});
    }
  }
  bench::print_table(t, flags);
  return 0;
}
