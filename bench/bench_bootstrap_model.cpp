// §III-B / Figure 2: analytic bootstrapping dynamics. Iterates the paper's
// difference equations for the BitTorrent-like model (eq. 1) and the
// T-Chain model (eqs. 2-6), prints the un-bootstrapped population over
// time for a flash crowd, and numerically checks Propositions III.1 and
// III.2 on the paper's own example numbers (delta=0.2, omega'~0.495,
// mu=0.5, K=2).
#include <cmath>
#include <iostream>

#include "src/model/bootstrap_model.h"
#include "src/util/flags.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  if (const auto unknown = flags.unknown({"n", "K", "delta", "M", "csv"});
      !unknown.empty()) {
    std::cerr << "unknown flag --" << unknown.front()
              << "; this bench reads --n --K --delta --M --csv\n";
    return 2;
  }

  model::ModelParams p;
  p.n = flags.get_double("n", 600);
  p.K = flags.get_double("K", 2);
  p.delta = flags.get_double("delta", 0.2);
  p.M = static_cast<std::size_t>(flags.get_int("M", 100));

  std::cout << "=== Bootstrapping model (paper Sec. III-B) ===\n"
            << "Paper: in a flash crowd T-Chain bootstraps newcomers faster "
               "than BitTorrent's optimistic unchoking whenever K*omega "
               "exceeds delta's effective share (Props. III.1/III.2)\n\n";

  const double w1 = model::omega_prime_uniform(p.M);
  const double w2 = model::omega_double_prime_uniform(p.M);
  std::cout << "omega'  = " << util::format_double(w1, 4)
            << "  (paper approximates 0.495 for M=100)\n"
            << "omega'' = " << util::format_double(w2, 4)
            << "  (log(M)/M = " << util::format_double(std::log(static_cast<double>(p.M)) / static_cast<double>(p.M), 4)
            << ")\n\n";

  // Flash crowd: everyone un-bootstrapped at t=0.
  const double x0 = p.n - 1;
  const auto bt = model::bittorrent_trajectory(p, x0, 60);
  const auto tchain = model::tchain_trajectory(p, x0, 0.0, 60);

  util::AsciiTable t({"slot", "BT un-bootstrapped", "T-Chain x",
                      "T-Chain y", "T-Chain un-bootstrapped"});
  for (std::size_t i = 0; i < bt.size(); i += 5) {
    t.add_row({std::to_string(i), util::format_double(bt[i].x, 1),
               util::format_double(tchain[i].x, 1),
               util::format_double(tchain[i].y, 1),
               util::format_double(tchain[i].x + tchain[i].y, 1)});
  }
  if (flags.get_bool("csv")) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  // Find the slot where each model has bootstrapped 90% of peers.
  auto slots_to_90 = [&](auto& traj) -> int {
    for (std::size_t i = 0; i < traj.size(); ++i) {
      const double un = traj[i].x + traj[i].y;
      if (un <= 0.1 * p.n) return static_cast<int>(i);
    }
    return -1;
  };
  std::cout << "\nslots to bootstrap 90%: BitTorrent-like = "
            << slots_to_90(bt) << ", T-Chain = " << slots_to_90(tchain)
            << "\n\n";

  // Propositions on the paper's example.
  const double mu = 0.5, nu = 0.5;
  std::cout << "Proposition III.1 (short-term, mu=" << mu
            << "): " << (model::prop31_condition(p, mu * p.n / 2, mu * p.n / 2,
                                                 mu * p.n)
                             ? "holds"
                             : "fails")
            << "  [K*omega'*mu = "
            << util::format_double(p.K * w1 * mu, 3)
            << " >= delta = " << p.delta << "]\n";
  std::cout << "Proposition III.2 (long-term, mu=0.1, nu=" << nu << ", K=10): "
            << [&] {
                 auto q = p;
                 q.K = 10;
                 return model::prop32_condition(q, 0.1, nu) ? "holds" : "fails";
               }()
            << "\n";
  return 0;
}
