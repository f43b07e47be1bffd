// Deterministic pseudo-random sources.
//
// Every stochastic element of the reproduction (link jitter, packet loss,
// Planet-Lab CPU load, overlay shortcut targets, workload records) draws
// from an explicitly seeded Rng so that tests and benches replay exactly.
// xoshiro256** is used as the core generator (fast, well-distributed, tiny
// state); splitmix64 seeds it, as its authors recommend.
#pragma once

#include <cstdint>
#include <random>

namespace ipop::util {

/// splitmix64 step; also useful as a cheap hash of a 64-bit value.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1B0BDEADBEEFull) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(*this);
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(*this);
  }
  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }
  /// Exponential with the given mean (0 mean yields 0).
  double exponential(double mean) {
    if (mean <= 0) return 0.0;
    return std::exponential_distribution<double>(1.0 / mean)(*this);
  }
  /// Normal (Gaussian).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(*this);
  }

  /// Derive an independent child generator (stable given the same label).
  Rng fork(std::uint64_t label) {
    std::uint64_t seed = (*this)() ^ (label * 0x9E3779B97F4A7C15ull);
    return Rng(seed);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace ipop::util
