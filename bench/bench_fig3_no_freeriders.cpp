// Figure 3: average download completion time (a) and average uplink
// utilization (b) vs. swarm size, no free-riders, flash crowd.
// Paper setup: 128 MiB file, swarms 200..1000, BitTorrent / PropShare /
// FairTorrent / T-Chain / Optimal.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(flags, {"full", "file-mb", "seeds", "swarm"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 16);
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 30 : 2));

  std::vector<double> swarms;
  if (full) {
    swarms = {200, 400, 600, 800, 1000};
  } else {
    swarms = {50, 100, 150, 200};
  }
  if (flags.has("swarm")) {
    swarms = {static_cast<double>(flags.get_int("swarm", 100))};
  }

  bench::banner("Figure 3 (no free-riders)",
                "all methods near-optimal and scalable; T-Chain and "
                "FairTorrent slightly faster / higher uplink utilization "
                "than BitTorrent and PropShare");

  const auto protos = protocols::paper_protocols();
  bench::Sweep sweep(bench::base_config(0, file_mb * util::kMiB));
  sweep.protocols(protos)
      .seeds(seeds)
      .axis("swarm", swarms, [](bench::RunSpec& s, double n) {
        s.config.leecher_count = static_cast<std::size_t>(n);
      });
  const auto records = bench::run(sweep, flags);

  util::AsciiTable t({"swarm", "protocol", "mean completion (s)", "ci95",
                      "uplink util (%)", "optimal (s)"});
  std::size_t i = 0;
  for (double n : swarms) {
    const auto cfg = bench::base_config(static_cast<std::size_t>(n),
                                        file_mb * util::kMiB);
    const double opt = bench::optimal_time(cfg);
    for (const auto& name : protos) {
      const auto p = bench::accumulate(records, i, seeds);
      t.add_row({exp::format_axis_value(n), name,
                 util::format_double(p.compliant.mean(), 1),
                 "+-" + util::format_double(p.compliant.ci95_half_width(), 1),
                 util::format_double(100 * p.uplink.mean(), 1),
                 util::format_double(opt, 1)});
    }
  }
  bench::print_table(t, flags);
  return 0;
}
