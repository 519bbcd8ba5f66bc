// Table II: incentive schemes vs. attack vectors. Each (protocol, attack)
// cell is scored by a scenario micro-simulation: a flash crowd with 25%
// free-riders configured for that specific attack. Scoring follows the
// paper's legend — Good: free-riders gain (almost) nothing; Medium: they
// succeed but substantially slower than compliant leechers; Bad: they
// free-ride effectively.
//
// --ablate-k additionally sweeps T-Chain's flow-control cap k (DESIGN.md §6).
#include "bench/common.h"

namespace {

using namespace tc;

struct AttackSetup {
  const char* name;
  bool large_view;
  bool whitewash;
  bool collude;
};

constexpr AttackSetup kAttacks[] = {
    {"exploit-altruism", false, false, false},
    {"large-view", true, false, false},
    {"whitewash", false, true, false},
    {"large-view+whitewash", true, true, false},
    {"collusion", true, true, true},
};

const char* verdict(std::size_t fr_done, std::size_t fr_total,
                    double fr_mean, double compliant_mean) {
  if (fr_total == 0) return "n/a";
  const double done_frac =
      static_cast<double>(fr_done) / static_cast<double>(fr_total);
  if (done_frac < 0.05) return "Good";
  if (fr_mean > 3.0 * compliant_mean) return "Medium";
  return "Bad";
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(
      flags, {"full", "file-mb", "leechers", "ablate-k"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 32 : 8);
  const std::size_t n =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 400 : 200));

  bench::banner("Table II (incentive schemes vs. attacks)",
                "T-Chain: Good against altruism-exploitation, cheating, "
                "large-view, whitewash/Sybil; collusion only degrades to "
                "Medium (colluders crawl). Baselines: exploitable.");

  const auto protos = protocols::table2_protocols();
  const std::size_t n_attacks = std::size(kAttacks);

  // One sweep point per attack: the axis value indexes kAttacks.
  std::vector<double> attack_idx(n_attacks);
  for (std::size_t i = 0; i < n_attacks; ++i) attack_idx[i] = double(i);

  bench::Sweep sweep(bench::base_config(n, file_mb * util::kMiB, 7));
  sweep.protocols(protos).axis(
      "attack", attack_idx, [](bench::RunSpec& s, double idx) {
        const auto& atk = kAttacks[static_cast<std::size_t>(idx)];
        s.config.freerider_fraction = 0.25;
        s.config.freerider_large_view = atk.large_view;
        s.config.freerider_whitewash = atk.whitewash;
        s.config.freerider_collude = atk.collude;
        s.config.freerider_stall_timeout = 2500.0;
        s.set_tag("attack", atk.name);
      });
  auto specs = sweep.build();

  // --ablate-k: T-Chain's flow-control cap k (paper fixes k=2), appended
  // to the same pool.
  const bool ablate = flags.get_bool("ablate-k");
  const std::vector<int> ks = {1, 2, 4, 8};
  if (ablate) {
    bench::Sweep ab(bench::base_config(n, file_mb * util::kMiB, 7));
    ab.protocol("tchain").axis(
        "k", {1, 2, 4, 8}, [](bench::RunSpec& s, double k) {
          s.config.freerider_fraction = 0.25;
          s.config.pending_cap = static_cast<int>(k);
          s.inspect = [](bt::Swarm& swarm, bt::Protocol&,
                         bench::RunRecord& rec) {
            double fr_bytes = 0;
            std::size_t fr_n = 0;
            for (const auto* r : swarm.metrics().all()) {
              if (!r->seeder && r->freerider) {
                fr_bytes += r->bytes_downloaded;
                ++fr_n;
              }
            }
            rec.add_extra("fr_mib_mean",
                          fr_n ? fr_bytes / static_cast<double>(fr_n) /
                                     static_cast<double>(util::kMiB)
                               : 0.0);
          };
        });
    for (auto& s : ab.build()) specs.push_back(std::move(s));
  }

  const auto records = bench::run(specs, flags);

  util::AsciiTable t({"attack", "protocol", "freeriders done",
                      "fr mean (s)", "compliant mean (s)", "verdict"});
  std::size_t i = 0;
  for (const auto& atk : kAttacks) {
    for (const auto& name : protos) {
      const auto& rec = records.at(i++);
      const auto& r = rec.result;
      const std::size_t fr_total =
          r.freerider_finished + r.freerider_unfinished;
      t.add_row({atk.name, name,
                 std::to_string(r.freerider_finished) + "/" +
                     std::to_string(fr_total),
                 r.freerider_mean >= 0
                     ? util::format_double(r.freerider_mean, 0)
                     : "never",
                 util::format_double(r.compliant_mean, 0),
                 rec.ok ? verdict(r.freerider_finished, fr_total,
                                  r.freerider_mean, r.compliant_mean)
                        : "FAILED"});
    }
  }
  bench::print_table(t, flags);

  if (ablate) {
    std::cout << "\nAblation: T-Chain flow-control cap k (paper fixes k=2)\n";
    util::AsciiTable ak({"k", "compliant mean (s)", "uplink util (%)",
                         "freerider bytes (MiB, mean)"});
    for (int k : ks) {
      const auto& rec = records.at(i++);
      ak.add_row({std::to_string(k),
                  util::format_double(rec.result.compliant_mean, 1),
                  util::format_double(100 * rec.result.uplink_utilization, 1),
                  util::format_double(rec.extra_value("fr_mib_mean", 0.0), 2)});
    }
    bench::print_table(ak, flags);
  }
  return 0;
}
