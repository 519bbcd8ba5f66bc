// Property tests on the fluid bandwidth model with randomized workloads:
// byte conservation, completion-time sanity against analytic bounds, and
// capacity ceilings, across many seeds.
#include <gtest/gtest.h>

#include "src/sim/bandwidth.h"
#include "src/util/rng.h"

namespace tc::sim {
namespace {

class BandwidthRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthRandomized, ConservationAndBounds) {
  util::Rng rng(GetParam());
  Simulator sim;
  BandwidthModel bw(sim);

  const int uploaders = 5;
  std::vector<double> caps(uploaders);
  for (int u = 0; u < uploaders; ++u) {
    caps[static_cast<std::size_t>(u)] = rng.uniform(1000.0, 100'000.0);
    bw.set_capacity(static_cast<NodeId>(u + 1), caps[static_cast<std::size_t>(u)]);
  }

  double expected_total = 0;
  double delivered_total = 0;
  std::vector<double> per_uploader_bytes(uploaders, 0.0);
  const int flows = 60;
  for (int i = 0; i < flows; ++i) {
    const int u = static_cast<int>(rng.index(uploaders));
    const double bytes = rng.uniform(100.0, 500'000.0);
    expected_total += bytes;
    per_uploader_bytes[static_cast<std::size_t>(u)] += bytes;
    const double start = rng.uniform(0.0, 50.0);
    sim.schedule_at(start, [&bw, &delivered_total, u, bytes] {
      bw.start_flow(static_cast<NodeId>(u + 1),
                    static_cast<NodeId>(100 + u), bytes,
                    [&delivered_total, bytes](FlowId) {
                      delivered_total += bytes;
                    });
    });
  }
  sim.run();

  // All flows complete and every byte is delivered exactly once.
  EXPECT_NEAR(delivered_total, expected_total, 1e-3);

  // No uploader finished faster than its capacity allows:
  // total_time >= max_u (bytes_u / cap_u) given all flows start by t=50.
  double min_required = 0;
  for (int u = 0; u < uploaders; ++u) {
    min_required = std::max(min_required, per_uploader_bytes[static_cast<std::size_t>(u)] /
                                              caps[static_cast<std::size_t>(u)]);
  }
  EXPECT_GE(sim.now() + 1e-6, min_required);
  // And it did not take absurdly longer than serialized transmission.
  EXPECT_LE(sim.now(), 50.0 + min_required + expected_total / 1000.0);
}

TEST_P(BandwidthRandomized, CancellationsNeverBreakAccounting) {
  util::Rng rng(GetParam() * 77 + 1);
  Simulator sim;
  BandwidthModel bw(sim);
  bw.set_capacity(1, 10'000.0);

  int completions = 0;
  double completed_bytes = 0;
  double last_completion = 0;
  std::vector<FlowId> ids;
  for (int i = 0; i < 40; ++i) {
    const double bytes = rng.uniform(1000.0, 50'000.0);
    ids.push_back(bw.start_flow(1, 2, bytes, [&, bytes](FlowId) {
      ++completions;
      completed_bytes += bytes;
      last_completion = sim.now();
    }));
  }
  // Cancel a random half at random times.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    const FlowId f = ids[i];
    sim.schedule_at(rng.uniform(0.0, 20.0), [&bw, &cancelled, f] {
      if (bw.cancel_flow(1, f)) ++cancelled;
    });
  }
  sim.run();
  EXPECT_EQ(completions + cancelled, 40);
  for (const FlowId f : ids) EXPECT_FALSE(bw.cancel_flow(1, f));  // none left
  // Completed bytes never exceed capacity * elapsed.
  EXPECT_LE(completed_bytes, 10'000.0 * last_completion + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthRandomized,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tc::sim
