// Figure 5: per-piece transfer timelines for the slowest (400 Kbps) and
// fastest (1200 Kbps) leechers under T-Chain — encrypted-piece arrivals vs.
// decryption-key arrivals. Paper: steady upload to the leecher; key delay
// small; for the 400 Kbps leecher the key line's slope is bounded by its
// own (smaller) upload bandwidth.
#include <unordered_map>

#include "bench/common.h"

namespace {

void print_timeline(const tc::analysis::PieceTimeline* tl, const char* label,
                    std::size_t buckets, const tc::util::Flags& flags) {
  using namespace tc;
  if (tl == nullptr || tl->encrypted_received.empty()) {
    std::cout << label << ": no trace captured\n";
    return;
  }
  const double t_end =
      std::max(tl->encrypted_received.back().first,
               tl->completed.empty() ? 0.0 : tl->completed.back().first);
  util::AsciiTable t({"elapsed (s)", "encrypted received", "decrypted (key)"});
  for (std::size_t b = 1; b <= buckets; ++b) {
    const double cutoff = t_end * static_cast<double>(b) / static_cast<double>(buckets);
    std::size_t enc = 0, dec = 0;
    for (const auto& [time, piece] : tl->encrypted_received)
      if (time <= cutoff) ++enc;
    for (const auto& [time, piece] : tl->completed)
      if (time <= cutoff) ++dec;
    t.add_row({util::format_double(cutoff, 1), std::to_string(enc),
               std::to_string(dec)});
  }
  std::cout << label << " (join-relative series of " << tl->completed.size()
            << " pieces)\n";
  bench::print_table(t, flags);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(flags, {"full", "file-mb", "leechers", "seed"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 128 : 8);
  const auto leechers =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 600 : 150));

  bench::banner("Figure 5 (piece transfer timelines)",
                "encrypted pieces arrive at a steady rate; decryption keys "
                "trail closely; for the slowest (400 Kbps) leecher the key "
                "series lags more because reciprocation is bounded by its "
                "own upload bandwidth");

  // One run; the setup hook arms the extreme-peer traces and the inspect
  // hook copies the two timelines out of the swarm before it is destroyed.
  analysis::PieceTimeline slow_tl, fast_tl;
  bool have_slow = false, have_fast = false;

  bench::Sweep sweep(bench::base_config(
      leechers, file_mb * util::kMiB,
      static_cast<std::uint64_t>(flags.get_int("seed", 1))));
  sweep.protocol("tchain").for_each([&](bench::RunSpec& s) {
    s.setup = [](bt::Swarm& swarm) { swarm.set_trace_extremes(true); };
    s.inspect = [&](bt::Swarm& swarm, bt::Protocol&, bench::RunRecord&) {
      if (const auto* tl = swarm.metrics().timeline(swarm.traced_slow_peer())) {
        slow_tl = *tl;
        have_slow = true;
      }
      if (const auto* tl = swarm.metrics().timeline(swarm.traced_fast_peer())) {
        fast_tl = *tl;
        have_fast = true;
      }
    };
  });
  bench::run(sweep, flags);

  print_timeline(have_slow ? &slow_tl : nullptr, "(a) 400 Kbps leecher", 12,
                 flags);
  std::cout << "\n";
  print_timeline(have_fast ? &fast_tl : nullptr, "(b) 1200 Kbps leecher", 12,
                 flags);

  // Key-delay summary: time between an encrypted piece and its key.
  for (auto [tl, have, label] :
       {std::tuple{&slow_tl, have_slow, "400Kbps"},
        {&fast_tl, have_fast, "1200Kbps"}}) {
    if (!have) continue;
    std::unordered_map<std::uint32_t, double> enc_at;
    for (const auto& [time, piece] : tl->encrypted_received) enc_at[piece] = time;
    util::RunningStats delay;
    for (const auto& [time, piece] : tl->completed) {
      const auto it = enc_at.find(piece);
      if (it != enc_at.end() && time >= it->second) delay.add(time - it->second);
    }
    std::cout << "\nmean key delay for " << label << " leecher: "
              << util::format_double(delay.mean(), 2) << " s (max "
              << util::format_double(delay.max(), 2) << ")\n";
  }
  return 0;
}
