#include "src/obs/registry.h"

#include <algorithm>
#include <cmath>

namespace tc::obs {

LogHistogram::LogHistogram(double lo, double hi, int per_decade)
    : lo_(lo), hi_(hi), per_decade_(per_decade) {
  if (!(lo > 0.0) || !(hi > lo) || per_decade < 1) {
    lo_ = 1e-4;
    hi_ = 1e7;
    per_decade_ = 16;
  }
  const auto span = std::log10(hi_ / lo_) * per_decade_;
  const auto buckets = static_cast<std::size_t>(std::ceil(span));
  counts_.assign(buckets + 2, 0);  // + underflow + overflow
}

std::size_t LogHistogram::bucket_of(double v) const {
  if (!(v >= lo_)) return 0;  // underflow; also catches v <= 0 and NaN
  if (v >= hi_) return counts_.size() - 1;
  const auto i = static_cast<std::size_t>(
      std::log10(v / lo_) * static_cast<double>(per_decade_));
  return std::min(i + 1, counts_.size() - 2);
}

void LogHistogram::add(double v) {
  ++counts_[bucket_of(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the p-quantile sample (nearest-rank, 1-based).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < target) continue;
    double v;
    if (i == 0) {
      v = min_;  // underflow bucket: all we know is they were < lo
    } else if (i == counts_.size() - 1) {
      v = max_;
    } else {
      const double blo = lo_ * std::pow(10.0, static_cast<double>(i - 1) /
                                                  per_decade_);
      const double bhi = blo * std::pow(10.0, 1.0 / per_decade_);
      v = std::sqrt(blo * bhi);  // geometric midpoint
    }
    return std::clamp(v, min_, max_);
  }
  return max_;
}

Counter& Registry::counter(const std::string& name) { return counters_[name]; }

LogHistogram& Registry::histogram(const std::string& name) {
  return histograms_.try_emplace(name).first->second;
}

std::vector<std::pair<std::string, double>> Registry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + 6 * histograms_.size());
  for (const auto& [name, c] : counters_)
    out.emplace_back(name, static_cast<double>(c.value()));
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name + ".count", static_cast<double>(h.count()));
    out.emplace_back(name + ".mean", h.mean());
    out.emplace_back(name + ".p50", h.percentile(0.50));
    out.emplace_back(name + ".p90", h.percentile(0.90));
    out.emplace_back(name + ".p99", h.percentile(0.99));
    out.emplace_back(name + ".max", h.max());
  }
  return out;
}

}  // namespace tc::obs
