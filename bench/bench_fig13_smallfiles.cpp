// Figure 13: small files under high churn. 1000-leecher flash crowd where
// a finished leecher is immediately replaced by a newcomer; the shared
// file has 1..50 pieces; mean download throughput of compliant leechers
// over the first 1000 s. Paper: (a) without free-riders, BT-family
// throughput collapses below ~5 pieces (T-Chain best there); between 5-30
// pieces RandomBT/FairTorrent beat T-Chain (encryption/key overhead);
// (b) with 50% free-riders T-Chain wins at every size.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(flags, {"full", "leechers", "horizon"});
  const bool full = flags.get_bool("full");
  const std::size_t population =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 1000 : 120));
  const double horizon = flags.get_double("horizon", 1000.0);

  bench::banner("Figure 13 (small files, high churn)",
                "(a) 0% free-riders: baselines collapse below ~5 pieces, "
                "T-Chain best there, RandomBT/FairTorrent best at 5-30 "
                "pieces; (b) 50% free-riders: T-Chain best at every size");

  const std::vector<double> piece_counts = {1, 2, 3, 5, 10, 20, 30, 50};
  const std::vector<std::string> protos = {"randombt", "bittorrent",
                                           "propshare", "fairtorrent",
                                           "tchain"};
  const std::vector<double> fracs = {0.0, 0.5};

  // Small file: `pieces` x 64 KiB exchange units for every protocol (the
  // paper's small-file experiment varies the piece count), hence the
  // pinned piece size.
  bt::SwarmConfig base;
  base.leecher_count = population;
  base.piece_bytes = 64 * util::kKiB;
  base.seed = 5;
  base.replace_on_finish = true;
  base.max_sim_time = horizon;

  bench::Sweep sweep(base);
  sweep.protocols(protos)
      .pin_piece_bytes(true)
      .axis("freeriders", fracs,
            [](bench::RunSpec& s, double frac) {
              s.config.freerider_fraction = frac;
            })
      .axis("pieces", piece_counts,
            [](bench::RunSpec& s, double pieces) {
              s.config.file_bytes =
                  static_cast<util::ByteCount>(pieces) * s.config.piece_bytes;
            })
      .for_each([horizon](bench::RunSpec& s) {
        s.inspect = [horizon](bt::Swarm& swarm, bt::Protocol&,
                              bench::RunRecord& rec) {
          rec.add_extra("throughput_bps",
                        swarm.metrics().mean_download_throughput(horizon));
        };
      });
  const auto records = bench::run(sweep, flags);

  std::size_t i = 0;
  for (double frac : fracs) {
    util::AsciiTable t({"pieces", "protocol", "mean throughput (Kbps)"});
    for (double pieces : piece_counts) {
      for (const auto& name : protos) {
        const auto& r = records.at(i++);
        const double bps = r.ok ? r.extra_value("throughput_bps", 0.0) : 0.0;
        t.add_row({exp::format_axis_value(pieces), name,
                   util::format_double(util::bytes_per_sec_to_kbps(bps), 1)});
      }
    }
    std::cout << (frac == 0.0 ? "(a) no free-riders"
                              : "\n(b) 50% free-riders")
              << "\n";
    bench::print_table(t, flags);
  }
  return 0;
}
