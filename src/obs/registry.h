// Named metric registry: counters and log-bucketed histograms
// with percentile queries. A Registry is the per-run metric store of the
// observability layer (src/obs/trace.h embeds one); it is snapshotted into
// exp::RunRecord::extra at the end of a traced run.
//
// Snapshots are deterministic: names are kept in sorted (std::map) order
// and histogram percentiles are pure functions of the recorded samples, so
// a traced sweep serializes byte-identically at any --jobs level.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tc::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Log-spaced histogram: `per_decade` buckets per factor of 10 covering
// [lo, hi), plus underflow/overflow edge buckets. Memory is O(buckets)
// regardless of sample count, and percentile queries return the geometric
// midpoint of the containing bucket — a bounded relative error of
// 10^(1/(2*per_decade)) - 1 (~7.5% at the default 16/decade), verified
// against the exact util::Distribution percentiles in tests.
class LogHistogram {
 public:
  explicit LogHistogram(double lo = 1e-4, double hi = 1e7,
                        int per_decade = 16);

  void add(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // p in [0,1]. Returns the geometric midpoint of the bucket holding the
  // p-quantile sample, clamped to the observed [min, max].
  double percentile(double p) const;

 private:
  std::size_t bucket_of(double v) const;

  double lo_, hi_;
  int per_decade_;
  // counts_[0] = underflow (< lo, incl. non-positive values);
  // counts_.back() = overflow (>= hi).
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class Registry {
 public:
  // Look up or create. References stay valid for the Registry's lifetime
  // (node-based containers).
  Counter& counter(const std::string& name);
  LogHistogram& histogram(const std::string& name);

  bool empty() const {
    return counters_.empty() && histograms_.empty();
  }

  // Flat, deterministic (name-sorted per kind) view: counters as-is,
  // histograms expanded to <name>.count/.mean/.p50/.p90/.p99/.max.
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace tc::obs
