// Figure 5: per-piece transfer timelines for the slowest (400 Kbps) and
// fastest (1200 Kbps) leechers under T-Chain — encrypted-piece arrivals vs.
// decryption-key arrivals. Paper: steady upload to the leecher; key delay
// small; for the 400 Kbps leecher the key line's slope is bounded by its
// own (smaller) upload bandwidth.
//
// Both series are read from the run's trace: an encrypted arrival is a
// kPieceDelivered whose ref names a kTxOpen with a payee, a key arrival a
// kPieceGranted. Times count from the leecher's join. A run whose ring
// wrapped is refused (exit 2).
#include <unordered_map>
#include <unordered_set>

#include "bench/common.h"

namespace {

// (time, piece) samples of one leecher's two series.
struct Timeline {
  bool found = false;  // the swarm had a leecher of the class
  std::vector<std::pair<double, std::uint32_t>> encrypted_received;
  std::vector<std::pair<double, std::uint32_t>> completed;  // key received
};

// The first compliant leecher of the upload class `kbps`, in join order.
const tc::analysis::PeerRecord* first_of_class(
    const tc::analysis::SwarmMetrics& m, double kbps) {
  for (const auto* r : m.all()) {
    if (!r->seeder && !r->freerider && r->upload_kbps == kbps) return r;
  }
  return nullptr;
}

// `leecher`'s two series, in seconds since it joined.
Timeline read_timeline(const std::vector<tc::obs::TraceEvent>& events,
                       const tc::analysis::PeerRecord* leecher) {
  using tc::obs::EventKind;
  Timeline tl;
  tl.found = leecher != nullptr;
  if (!tl.found) return tl;
  const tc::net::PeerId peer = leecher->id;
  const double joined = leecher->join_time;
  std::unordered_set<std::uint64_t> encrypted_txs;  // opened toward `peer`
  for (const auto& e : events) {
    if (e.kind == EventKind::kTxOpen && e.b == peer &&
        e.c != tc::net::kNoPeer) {
      encrypted_txs.insert(e.ref);
    } else if (e.kind == EventKind::kPieceDelivered && e.b == peer &&
               encrypted_txs.count(e.ref) != 0) {
      tl.encrypted_received.emplace_back(e.t - joined, e.piece);
    } else if (e.kind == EventKind::kPieceGranted && e.a == peer) {
      tl.completed.emplace_back(e.t - joined, e.piece);
    }
  }
  return tl;
}

void print_timeline(const Timeline& tl, const char* label,
                    std::size_t buckets, const tc::util::Flags& flags) {
  using namespace tc;
  if (!tl.found || tl.encrypted_received.empty()) {
    std::cout << label << ": no trace captured\n";
    return;
  }
  const double t_end =
      std::max(tl.encrypted_received.back().first,
               tl.completed.empty() ? 0.0 : tl.completed.back().first);
  util::AsciiTable t({"elapsed (s)", "encrypted received", "decrypted (key)"});
  for (std::size_t b = 1; b <= buckets; ++b) {
    const double cutoff = t_end * static_cast<double>(b) / static_cast<double>(buckets);
    std::size_t enc = 0, dec = 0;
    for (const auto& [time, piece] : tl.encrypted_received)
      if (time <= cutoff) ++enc;
    for (const auto& [time, piece] : tl.completed)
      if (time <= cutoff) ++dec;
    t.add_row({util::format_double(cutoff, 1), std::to_string(enc),
               std::to_string(dec)});
  }
  std::cout << label << " (join-relative series of " << tl.completed.size()
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

  // One traced run; the inspect hook reads the two timelines out of the
  // trace before the swarm is destroyed.
  Timeline slow_tl, fast_tl;
  std::uint64_t lost = 0;

  bench::Sweep sweep(bench::base_config(
      leechers, file_mb * util::kMiB,
      static_cast<std::uint64_t>(flags.get_int("seed", 1))));
  sweep.protocol("tchain").for_each([&](bench::RunSpec& s) {
    s.trace.enabled = true;
    s.trace.kind_mask = obs::kind_bit(obs::EventKind::kTxOpen) |
                        obs::kind_bit(obs::EventKind::kPieceDelivered) |
                        obs::kind_bit(obs::EventKind::kPieceGranted);
    s.inspect = [&](bt::Swarm& swarm, bt::Protocol&, bench::RunRecord&) {
      lost = swarm.obs()->ring().dropped();
      const auto events = swarm.obs()->events();
      const auto& m = swarm.metrics();
      slow_tl = read_timeline(
          events, first_of_class(m, bt::kLeecherUploadKbps.front()));
      fast_tl = read_timeline(
          events, first_of_class(m, bt::kLeecherUploadKbps.back()));
    };
  });
  bench::run(sweep, flags);
  bench::refuse_lost_events(lost);

  print_timeline(slow_tl, "(a) 400 Kbps leecher", 12, flags);
  std::cout << "\n";
  print_timeline(fast_tl, "(b) 1200 Kbps leecher", 12, flags);

  // Key-delay summary: time between an encrypted piece and its key.
  for (auto [tl, label] :
       {std::pair{&slow_tl, "400Kbps"}, {&fast_tl, "1200Kbps"}}) {
    if (!tl->found) continue;
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
