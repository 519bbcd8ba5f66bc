#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tc::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  return t_quantile_975(n_ - 1) * stddev() / std::sqrt(static_cast<double>(n_));
}

double t_quantile_975(std::size_t df) {
  // Two-sided 95% (upper 97.5%) quantiles of the Student-t distribution.
  static constexpr double kTable[] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
      2.262,  2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110,
      2.101,  2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
      2.052,  2.048,  2.045, 2.042};
  if (df == 0) return 0.0;
  if (df < std::size(kTable)) return kTable[df];
  if (df < 40) return 2.03;
  if (df < 60) return 2.01;
  if (df < 120) return 1.98;
  return 1.96;
}

void Distribution::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Distribution::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Distribution::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Distribution::percentile(double p) const {
  if (samples_.empty()) throw std::out_of_range("percentile of empty distribution");
  ensure_sorted();
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= samples_.size()) return samples_.back();
  return samples_[i] * (1.0 - frac) + samples_[i + 1] * frac;
}

}  // namespace tc::util
