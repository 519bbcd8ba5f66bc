// Streaming statistics, confidence intervals and empirical distributions
// used by the evaluation harness to report means with 95% confidence
// intervals the way the paper's figures do.
#pragma once

#include <cstddef>
#include <vector>

namespace tc::util {

// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  // Half-width of the 95% confidence interval of the mean, using a
  // Student-t quantile (exactly what the paper's error bars show).
  double ci95_half_width() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Two-sided 97.5% Student-t quantile for the given degrees of freedom.
// Table-based for small df, asymptotic 1.96 beyond.
double t_quantile_975(std::size_t df);

// Empirical distribution of a batch of samples.
class Distribution {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  // p in [0,1]; linear interpolation between order statistics.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace tc::util
