// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--live-deadline SECONDS]
//
// Workloads: sim-flash-tchain, sim-attack-churn, live-small, live-bulk.
// With --trace 0 it reports end-to-end metrics, with --trace 1 per-layer
// metrics. Lines before the last are human-readable notes (digests, sizes);
// the last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 on a completed run (failed swarms are counted, not fatal),
// 2 on a usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/util/flags.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double thread_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {
volatile std::uint64_t g_probe_sink = 0;
}  // namespace

double probe_seconds() {
  const auto step = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  std::vector<std::uint64_t> heap;
  for (int i = 0; i < 65536; ++i) heap.push_back(step(x) >> 20);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const auto t0 = Clock::now();
  for (int i = 0; i < 100'000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.back() += step(x) & 0xffff;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  std::uint64_t sum = heap.front();
  std::map<std::uint64_t, std::function<void()>> timers;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = step(x);
    timers.emplace(key, [&sum, key] { sum += key; });
    if (timers.size() > 4096) {
      timers.begin()->second();
      timers.erase(timers.begin());
    }
  }
  const double s = seconds_since(t0);
  g_probe_sink = g_probe_sink + sum;
  return s;
}

}  // namespace perfbench

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_result(const perfbench::Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const tc::util::Flags flags(argc, argv);
  perfbench::Options opts;
  opts.workload = flags.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.seconds = flags.get_double("seconds", 10.0);
  opts.trace = flags.get_int("trace", 0) != 0;
  opts.smoke = flags.get_bool("smoke");
  opts.live_deadline = flags.get_double("live-deadline", 0.0);
  if (opts.seed == 0 || opts.seconds <= 0) {
    std::cerr << "perfbench: --seed must be >= 1 and --seconds > 0\n";
    return 2;
  }

  perfbench::Outcome out;
  try {
    if (opts.workload.rfind("sim-", 0) == 0) {
      out = perfbench::run_sim_workload(opts);
    } else if (opts.workload.rfind("live-", 0) == 0) {
      out = perfbench::run_live_workload(opts);
    } else {
      std::cerr << "perfbench: unknown --workload '" << opts.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  for (const auto& note : out.notes) std::cout << note << "\n";
  print_result(out);
  return 0;
}
