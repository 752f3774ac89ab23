// Deterministic random number generation.
//
// Every stochastic component in the library takes an explicit seed (or an
// Rng&) so experiments are reproducible run-to-run. The engine is a
// SplitMix64-seeded xoshiro-style generator wrapped behind std::mt19937_64
// compatible helpers.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace coda {

/// SplitMix64's output for the state x: the increment γ (kSplitMixGamma),
/// then the finalizer. A stateless, platform-stable mix (std::hash is
/// neither) — the stream from state s is mix64(s), mix64(s + γ),
/// mix64(s + 2γ), ... — behind retry jitter, SimNet's fault draws, DARR
/// ring placement and the halving tournament order.
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;
inline std::uint64_t mix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of a hash.
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic pseudo-random generator with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return uniform(0.0, 1.0); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
  }

  /// Standard normal draw.
  double normal() { return normal(0.0, 1.0); }

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Index in [0, n). n must be > 0.
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    shuffle(p);
    return p;
  }

  /// Derives an independent child generator; useful for giving each parallel
  /// task its own stream without sharing mutable state.
  Rng split() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace coda
