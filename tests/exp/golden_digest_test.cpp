// Golden digest: the serialized records of one small swarm per paper
// protocol, with free-riders and every fault on, hashed and pinned. Any
// change to what the simulator computes (event order, RNG draws, float
// arithmetic) changes the digest, so "bench output byte-identical" is
// checked here instead of by diffing bench stdout by hand. A change that
// is meant to move simulated output re-records kGolden.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/crypto/sha256.h"
#include "src/exp/runner.h"
#include "src/protocols/registry.h"
#include "src/util/bytes.h"

namespace tc::exp {
namespace {

// SHA-256 of write_csv(records, /*include_timing=*/false) below.
constexpr const char* kGolden =
    "46fbdf70cd200832bcc3f5a4f42ae0df682b30c4a8fb3c01bca2b36573f1aa80";

// Shaped like perfbench's sim-attack-churn workload at its smoke size.
std::vector<RunSpec> attack_churn_specs() {
  bt::SwarmConfig cfg;
  cfg.leecher_count = 20;
  cfg.file_bytes = 2 * util::kMiB;
  cfg.max_sim_time = 300'000.0;
  cfg.freerider_fraction = 0.25;
  cfg.faults.control_loss = 0.10;
  cfg.faults.control_jitter = 0.02;
  cfg.faults.session_kind = sim::FaultPlan::SessionKind::kLogNormal;
  cfg.faults.mean_session = 300.0;
  cfg.faults.session_sigma = 1.0;
  cfg.faults.crash_fraction = 0.5;
  cfg.faults.outage_rate = 0.002;
  cfg.faults.outage_mean_duration = 10.0;
  cfg.tx_timeout = 15.0;
  Sweep sweep(cfg);
  sweep.protocols(protocols::paper_protocols()).seeds(1, 1);
  return sweep.build();
}

TEST(GoldenDigest, AttackChurnSmokeRecordsAreByteIdentical) {
  const std::vector<RunSpec> specs = attack_churn_specs();
  ASSERT_EQ(specs.size(), 4u);
  std::vector<RunRecord> records;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    records.push_back(run_one(specs[i], i));
    ASSERT_TRUE(records.back().ok) << records.back().error;
  }
  std::ostringstream csv;
  write_csv(csv, records, /*include_timing=*/false);
  const crypto::Digest256 d = crypto::sha256(csv.str());
  EXPECT_EQ(util::to_hex(d.data(), d.size()), kGolden)
      << "simulated output changed; records:\n"
      << csv.str();
}

}  // namespace
}  // namespace tc::exp
