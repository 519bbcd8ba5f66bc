// Quickstart: simulate one T-Chain swarm (flash crowd, no free-riders) and
// print the headline numbers — mean download completion time, uplink
// utilization, chain census, and exchange-protocol statistics. The chain
// and exchange counts are read from the run's trace (obs::ChainView plus
// the trace's per-kind and registry counters).
//
// Usage: quickstart [--leechers N] [--file-mb M] [--seed S] [--freeriders F]
#include <iostream>

#include "src/analysis/metrics.h"
#include "src/bt/swarm.h"
#include "src/obs/chain_view.h"
#include "src/protocols/tchain.h"
#include "src/util/flags.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  tc::util::Flags flags(argc, argv);

  tc::bt::SwarmConfig cfg;
  cfg.leecher_count = static_cast<std::size_t>(flags.get_int("leechers", 120));
  cfg.file_bytes = flags.get_int("file-mb", 8) * tc::util::kMiB;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  cfg.freerider_fraction = flags.get_double("freeriders", 0.0);
  cfg.max_sim_time = flags.get_double("max-time", 50'000.0);

  tc::protocols::TChainProtocol tchain;
  cfg.piece_bytes = tchain.default_piece_bytes();

  tc::bt::Swarm swarm(cfg, tchain);
  tc::obs::TraceConfig tcfg;
  tcfg.kind_mask = tc::obs::kChainAnalysisKinds |
                   tc::obs::kind_bit(tc::obs::EventKind::kKeyDelivered);
  // ~4 recorded events per transaction (~one per piece delivery), padded.
  tcfg.ring_capacity = cfg.piece_count() * (cfg.leecher_count + 8) * 4 + 65536;
  swarm.enable_obs(tcfg);
  swarm.run();
  tc::obs::Trace& trace = *swarm.obs();
  const auto chains = tc::obs::ChainView::reconstruct(trace.events());

  const auto& m = swarm.metrics();
  using F = tc::analysis::SwarmMetrics::PeerFilter;
  const auto compliant = m.completion_times(F::kCompliant);
  const auto freeriders = m.completion_times(F::kFreeRiders);

  std::cout << "T-Chain quickstart: " << cfg.leecher_count << " leechers, "
            << cfg.file_bytes / tc::util::kMiB << " MiB file, "
            << swarm.piece_count() << " pieces of "
            << cfg.piece_bytes / tc::util::kKiB << " KiB\n\n";

  tc::util::AsciiTable t({"metric", "value"});
  t.add_row({"simulated seconds", tc::util::format_double(swarm.end_time(), 1)});
  t.add_row({"compliant finished", std::to_string(compliant.count())});
  t.add_row({"compliant unfinished",
             std::to_string(m.unfinished_count(F::kCompliant))});
  t.add_row({"mean completion time (s)",
             tc::util::format_double(compliant.mean(), 1)});
  t.add_row({"median completion time (s)",
             compliant.empty() ? "-" : tc::util::format_double(compliant.median(), 1)});
  t.add_row({"mean uplink utilization (%)",
             tc::util::format_double(
                 100.0 * m.mean_uplink_utilization(F::kCompliant, swarm.end_time()),
                 1)});
  t.add_row({"free-riders finished", std::to_string(freeriders.count())});
  t.add_row({"free-riders unfinished",
             std::to_string(m.unfinished_count(F::kFreeRiders))});

  t.add_row({"chains created (seeder)", std::to_string(chains.created_by_seeder())});
  t.add_row({"chains created (leechers)",
             std::to_string(chains.created_by_leechers())});
  t.add_row({"mean chain length",
             tc::util::format_double(chains.mean_terminated_length(), 1)});

  t.add_row({"encrypted txs opened",
             std::to_string(chains.direct_txs() + chains.indirect_txs())});
  t.add_row({"terminal (plain) txs opened",
             std::to_string(chains.terminal_txs())});
  t.add_row({"keys released",
             std::to_string(trace.count(tc::obs::EventKind::kKeyDelivered))});
  t.add_row({"direct-reciprocity txs", std::to_string(chains.direct_txs())});
  t.add_row({"indirect-reciprocity txs",
             std::to_string(chains.indirect_txs())});
  t.add_row({"bootstrap forwards",
             std::to_string(trace.registry()
                                .counter("tchain.bootstrap_forwards")
                                .value())});
  t.print(std::cout);
  if (trace.ring().dropped() > 0) {
    std::cerr << "warning: trace ring wrapped; chain rows are truncated\n";
  }
  return 0;
}
