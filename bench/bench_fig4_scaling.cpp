// Figure 4: T-Chain scaling. (a) file-size effect at fixed population
// (paper: 600 leechers, 32 MB..1024 MB — completion time grows linearly);
// (b) swarm-size effect at fixed file (paper: 128 MB, 10..10,000 leechers
// — completion time converges to a constant).
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(flags, {"full", "file-mb", "seeds", "leechers"});
  const bool full = flags.get_bool("full");
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 30 : 2));
  const std::size_t leechers =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 600 : 100));
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);

  const std::vector<double> sizes_mb = full
      ? std::vector<double>{32, 64, 128, 256, 512, 1024}
      : std::vector<double>{2, 4, 8, 16, 32};
  const std::vector<double> swarms = full
      ? std::vector<double>{10, 50, 100, 500, 1000, 5000, 10000}
      : std::vector<double>{10, 25, 50, 100, 200, 400};

  bench::banner("Figure 4 (T-Chain scaling)",
                "(a) completion time increases linearly with file size; "
                "(b) completion time converges and stays nearly constant "
                "with swarm size (seeder-dominated below ~200 leechers)");

  // (a) file-size sweep at fixed population.
  bench::Sweep by_file(bench::base_config(leechers, 0));
  by_file.protocol("tchain")
      .seeds(seeds)
      .axis("file_mb", sizes_mb, [](bench::RunSpec& s, double mb) {
        s.config.file_bytes = static_cast<util::ByteCount>(mb) * util::kMiB;
      });
  // (b) swarm-size sweep at fixed file.
  bench::Sweep by_swarm(bench::base_config(0, file_mb * util::kMiB));
  by_swarm.protocol("tchain")
      .seeds(seeds)
      .axis("swarm", swarms, [](bench::RunSpec& s, double n) {
        s.config.leecher_count = static_cast<std::size_t>(n);
      });

  const auto records = bench::run(bench::concat({&by_file, &by_swarm}), flags);
  std::size_t i = 0;

  {
    util::AsciiTable t({"file (MiB)", "mean completion (s)", "ci95",
                        "sec per MiB"});
    for (double mb : sizes_mb) {
      const auto p = bench::accumulate(records, i, seeds);
      t.add_row({exp::format_axis_value(mb),
                 util::format_double(p.compliant.mean(), 1),
                 "+-" + util::format_double(p.compliant.ci95_half_width(), 1),
                 util::format_double(p.compliant.mean() / mb, 2)});
    }
    std::cout << "(a) file-size effect, " << leechers << " leechers\n";
    bench::print_table(t, flags);
  }
  {
    util::AsciiTable t({"leechers", "mean completion (s)", "ci95"});
    for (double n : swarms) {
      const auto p = bench::accumulate(records, i, seeds);
      t.add_row({exp::format_axis_value(n),
                 util::format_double(p.compliant.mean(), 1),
                 "+-" + util::format_double(p.compliant.ci95_half_width(), 1)});
    }
    std::cout << "\n(b) swarm-size effect, " << file_mb << " MiB file\n";
    bench::print_table(t, flags);
  }
  return 0;
}
