// Resilience sweep: completion-time degradation and recovery behaviour
// under injected faults — control-message loss, abrupt crashes under
// lognormal session churn, and transient upload outages. Not a paper
// figure; companion to DESIGN.md "Failure model". The headline check:
// T-Chain's transaction watchdog and §II-B4 escrow keep survivors
// finishing (no hangs, no leaked obligations) even when 10-20% of
// control messages vanish and half of all churn exits are crashes.
#include "bench/common.h"

namespace {

struct Scenario {
  std::string name;
  tc::sim::FaultPlan plan;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tc;
  util::Flags flags(argc, argv);
  bench::refuse_unknown_flags(flags, {"full", "file-mb", "leechers", "seeds"});
  const bool full = flags.get_bool("full");
  const auto file_mb = flags.get_int("file-mb", full ? 64 : 8);
  const auto leechers =
      static_cast<std::size_t>(flags.get_int("leechers", full ? 200 : 48));
  const auto seeds =
      static_cast<std::size_t>(flags.get_int("seeds", full ? 10 : 3));

  // Loss-only rows isolate the control plane; churn rows add lognormal
  // sessions where half the exits are crashes (no goodbye, no escrow);
  // the last row stacks everything including upload outages.
  std::vector<Scenario> scenarios;
  scenarios.push_back({"baseline", {}});
  for (double loss : full ? std::vector<double>{0.05, 0.10, 0.20}
                          : std::vector<double>{0.10, 0.20}) {
    Scenario s;
    s.name = "loss=" + util::format_double(loss, 2);
    s.plan.control_loss = loss;
    s.plan.control_jitter = 0.02;
    scenarios.push_back(s);
  }
  {
    Scenario s;
    s.name = "churn";
    s.plan.session_kind = sim::FaultPlan::SessionKind::kLogNormal;
    s.plan.mean_session = 300.0;
    s.plan.session_sigma = 1.0;
    s.plan.crash_fraction = 0.5;
    scenarios.push_back(s);
    s.name = "loss=0.10+churn";
    s.plan.control_loss = 0.10;
    s.plan.control_jitter = 0.02;
    scenarios.push_back(s);
    s.name = "loss=0.10+churn+outages";
    s.plan.outage_rate = 0.002;
    s.plan.outage_mean_duration = 10.0;
    scenarios.push_back(s);
  }

  bench::banner(
      "Resilience sweep (fault injection)",
      "survivors complete under loss/crashes/outages; T-Chain recovers "
      "via tx watchdog + escrow, no transaction leaks");

  // Axis value indexes `scenarios`; the survivor census (leechers that did
  // not churn out, and their completion times) comes from the inspect hook.
  std::vector<double> idx(scenarios.size());
  for (std::size_t k = 0; k < scenarios.size(); ++k) idx[k] = double(k);

  bench::Sweep sweep(bench::base_config(leechers, file_mb * util::kMiB));
  sweep.protocols(protocols::paper_protocols())
      .seeds(seeds)
      .axis("scenario", idx,
            [&scenarios](bench::RunSpec& s, double i) {
              const auto& sc = scenarios[static_cast<std::size_t>(i)];
              s.config.faults = sc.plan;
              s.config.tx_timeout = 15.0;  // read by T-Chain's watchdog only
              s.set_tag("scenario", sc.name);
            })
      .for_each([](bench::RunSpec& s) {
        s.inspect = [](bt::Swarm& swarm, bt::Protocol&,
                       bench::RunRecord& rec) {
          std::size_t survivors = 0, finished = 0;
          double time_sum = 0;
          for (const auto* r : swarm.metrics().all()) {
            if (r->seeder || r->freerider) continue;
            if (r->depart_time >= 0 && !r->finished()) continue;  // churned
            ++survivors;
            if (r->finished()) {
              ++finished;
              time_sum += r->finish_time - r->join_time;
            }
          }
          rec.add_extra("survivors", static_cast<double>(survivors));
          rec.add_extra("surv_finished", static_cast<double>(finished));
          rec.add_extra("surv_time_sum", time_sum);
        };
      });
  const auto records = bench::run(sweep, flags);

  util::AsciiTable t({"scenario", "protocol", "mean (s)", "done/survived",
                      "crashes", "ctl drop", "tx timeouts", "refetches",
                      "keys lost", "escrow rec"});
  std::size_t i = 0;
  for (const auto& sc : scenarios) {
    for (const auto& name : protocols::paper_protocols()) {
      std::size_t survivors = 0, finished = 0, crashes = 0;
      std::uint64_t ctl_sent = 0, ctl_dropped = 0;
      std::uint64_t timeouts = 0, refetches = 0, keys_lost = 0,
                    keys_recovered = 0;
      double time_sum = 0;
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto& rec = records.at(i++);
        if (!rec.ok) continue;
        survivors += static_cast<std::size_t>(rec.extra_value("survivors", 0));
        finished +=
            static_cast<std::size_t>(rec.extra_value("surv_finished", 0));
        time_sum += rec.extra_value("surv_time_sum", 0);
        const auto& rs = rec.result.resilience;
        crashes += rs.crashes;
        ctl_sent += rs.control_sent;
        ctl_dropped += rs.control_dropped;
        timeouts += rs.transactions_timed_out;
        refetches += rs.piece_refetches;
        keys_lost += rs.keys_lost;
        keys_recovered += rs.keys_escrow_recovered;
      }
      const double drop_pct =
          ctl_sent ? 100.0 * static_cast<double>(ctl_dropped) /
                         static_cast<double>(ctl_sent)
                   : 0.0;
      t.add_row({sc.name, name,
                 finished ? util::format_double(
                                time_sum / static_cast<double>(finished), 1)
                          : "never",
                 std::to_string(finished) + "/" + std::to_string(survivors),
                 std::to_string(crashes),
                 util::format_double(drop_pct, 1) + "%",
                 std::to_string(timeouts), std::to_string(refetches),
                 std::to_string(keys_lost), std::to_string(keys_recovered)});
    }
  }
  bench::print_table(t, flags);
  return 0;
}
