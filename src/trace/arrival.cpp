#include "src/trace/arrival.h"

#include <algorithm>
#include <cmath>

namespace tc::trace {

std::vector<SimTime> flash_crowd_arrivals(std::size_t count,
                                          util::Rng& rng) {
  std::vector<SimTime> t(count);
  for (auto& x : t) x = rng.uniform(0.0, 10.0);
  std::sort(t.begin(), t.end());
  return t;
}

double RedHatTraceArrivals::rate_at(SimTime t) const {
  const double diurnal =
      1.0 + p_.diurnal_amplitude * std::sin(2.0 * M_PI * t / 86'400.0);
  return std::max(p_.floor_rate,
                  p_.peak_rate * std::exp(-t / p_.decay_seconds) * diurnal);
}

std::vector<SimTime> RedHatTraceArrivals::generate(std::size_t count,
                                                   util::Rng& rng) const {
  // Lewis-Shedler thinning against the (conservative) envelope rate.
  const double envelope = p_.peak_rate * (1.0 + p_.diurnal_amplitude);
  std::vector<SimTime> t;
  t.reserve(count);
  SimTime now = 0.0;
  while (t.size() < count) {
    now += rng.exponential(envelope);
    if (rng.uniform() <= rate_at(now) / envelope) t.push_back(now);
  }
  return t;
}

LogNormalSessions::LogNormalSessions(SimTime median_seconds, double sigma)
    : mu_(std::log(median_seconds)), sigma_(sigma) {}

SimTime LogNormalSessions::duration(util::Rng& rng) const {
  return std::exp(rng.normal(mu_, sigma_));
}

}  // namespace tc::trace
