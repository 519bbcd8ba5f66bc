// Deterministic pseudo-random number generation for simulations.
//
// The simulator must be exactly reproducible from a seed, so we use our own
// xoshiro256** generator (public-domain algorithm by Blackman & Vigna)
// seeded via SplitMix64 instead of std::mt19937, whose distributions are
// not guaranteed to be identical across standard-library implementations.
#pragma once

#include <cstdint>
#include <vector>
#include <cstddef>
#include <cmath>

namespace tc::util {

// SplitMix64: used to expand a 64-bit seed into xoshiro state.
// Also usable standalone as a fast hash/mixing function.
std::uint64_t split_mix64(std::uint64_t& state);

// xoshiro256** 1.0 with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Raw 64 bits of pseudo-randomness.
  std::uint64_t next_u64();

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  // Uniform double in [0, 1).
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Exponentially distributed with the given rate (mean 1/rate).
  double exponential(double rate);

  // Standard normal via Box-Muller (fixed two uniform draws, so the stream
  // position stays predictable for determinism tests).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Uniformly chosen element. Requires non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  // Sample k distinct indices from [0, n) without replacement
  // (k is clamped to n). Order is random.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

}  // namespace tc::util
