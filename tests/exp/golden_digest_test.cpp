// Golden digest: the serialized records of one small swarm per protocol,
// with free-riders and every fault on, hashed and pinned. Any
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

// SHA-256 of write_csv(records, /*include_timing=*/false) below, for the
// four paper protocols.
constexpr const char* kGolden =
    "46fbdf70cd200832bcc3f5a4f42ae0df682b30c4a8fb3c01bca2b36573f1aa80";

// The same digest for the rest of the protocol cast: Table II's indirect
// baselines and Random BitTorrent (§IV-I), with colluding free-riders so
// EigenTrust's false-praise path runs.
constexpr const char* kGoldenIndirect =
    "1cdaaba263e6ef3a93ffbae3a7014beb0979c67660aa248acdf400e4ac83b49b";

// Shaped like perfbench's sim-attack-churn workload at its smoke size.
std::vector<RunSpec> attack_churn_specs(
    const std::vector<std::string>& protocols, bool collude = false) {
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
  cfg.freerider_collude = collude;
  Sweep sweep(cfg);
  sweep.protocols(protocols).seeds(1, 1);
  return sweep.build();
}

// The timing-free CSV of one run per spec.
std::string records_csv(const std::vector<RunSpec>& specs) {
  std::vector<RunRecord> records;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    records.push_back(run_one(specs[i], i));
    EXPECT_TRUE(records.back().ok) << records.back().error;
  }
  std::ostringstream csv;
  write_csv(csv, records, /*include_timing=*/false);
  return csv.str();
}

std::string sha256_hex(const std::string& s) {
  const crypto::Digest256 d = crypto::sha256(s);
  return util::to_hex(d.data(), d.size());
}

TEST(GoldenDigest, AttackChurnSmokeRecordsAreByteIdentical) {
  const auto specs = attack_churn_specs(protocols::paper_protocols());
  ASSERT_EQ(specs.size(), 4u);
  const std::string csv = records_csv(specs);
  EXPECT_EQ(sha256_hex(csv), kGolden)
      << "simulated output changed; records:\n"
      << csv;
}

TEST(GoldenDigest, IndirectCastSmokeRecordsAreByteIdentical) {
  const auto specs = attack_churn_specs(
      {"eigentrust", "dandelion", "randombt"}, /*collude=*/true);
  ASSERT_EQ(specs.size(), 3u);
  const std::string csv = records_csv(specs);
  EXPECT_EQ(sha256_hex(csv), kGoldenIndirect)
      << "simulated output changed; records:\n"
      << csv;
}

}  // namespace
}  // namespace tc::exp
