// Shared plumbing of the benchmark harness: command-line options, the
// metric table every workload fills, host clocks (wall, per-thread CPU,
// peak RSS) and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  // per-layer run instead of the end-to-end run
  bool smoke = false;  // tiny sizes: the self-test's quick pass
  // Live workloads only: per-swarm wall-clock deadline (0 = the default).
  // A deadline too short to finish forces failures (self-test).
  double live_deadline = 0.0;
};

// One output metric. Insertion order is print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload run reports: every swarm is one operation.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON result (digests, sizes).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// splitmix64: derives the per-swarm seeds of a run from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

// CPU seconds (user + sys) consumed so far by the calling thread.
double thread_cpu_seconds();
// Peak resident set of the whole process, MiB.
double peak_rss_mib();

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// Host-speed probe: seconds of a fixed job that calls none of the library
// (a binary heap and a std::map of callbacks, the simulator's access
// pattern). Other tenants slow it and the simulator alike, so sim timings
// are scaled by kProbeNominalSeconds / (the run's median probe).
double probe_seconds();
constexpr double kProbeNominalSeconds = 0.011;

// Runs `body(iters)` with growing iteration counts until one call lasts at
// least `min_seconds`, then returns the median nanoseconds per iteration
// over `reps` calls at that count.
template <typename Body>
double ns_per_iter(Body&& body, double min_seconds = 0.02, int reps = 5) {
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    body(iters);
    if (seconds_since(t0) >= min_seconds || iters >= (1ull << 40)) break;
    iters *= 2;
  }
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body(iters);
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(iters));
  }
  return median(std::move(samples));
}

Outcome run_sim_workload(const Options& opts);
Outcome run_live_workload(const Options& opts);

}  // namespace perfbench
