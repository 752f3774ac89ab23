// Summary statistics for the benchmark's samples: median, quartiles (the
// same "exclusive" method as Python's statistics.quantiles, so the numbers
// printed here match what a reader recomputes from the raw runs), and the
// tail rule — the highest percentile that still has at least ten samples
// beyond it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Q1, Q2, Q3 as statistics.quantiles(v, n=4) computes them (method
/// "exclusive"). Needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// A tail percentile with the evidence behind it.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked strictly above the value
  bool resolved = false;   ///< false: fewer than 10 beyond even at p50

  std::string label() const;
};

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} whose nearest-rank
/// value has at least `min_beyond` samples ranked above it. When even p50
/// has fewer, reports p50 and marks the tail unresolved.
inline Tail tail(std::vector<double> v, std::size_t min_beyond = 10) {
  if (v.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Tail t;
  t.samples = n;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it (1-based rank r; r is at least 1 because p > 0).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    const std::size_t r = std::max<std::size_t>(rank, 1);
    t.value = v[r - 1];
    t.percentile = p;
    t.beyond = n - r;
    if (t.beyond >= min_beyond) {
      t.resolved = true;
      return t;
    }
  }
  return t;  // p50, unresolved
}

inline std::string Tail::label() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples, %zu beyond%s",
                percentile, samples, beyond,
                resolved ? "" : " (fewer than 10 beyond: tail unresolved)");
  return buf;
}

/// A ratio that always travels with its base.
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;
  std::string numerator_name;
  std::string denominator_name;

  double value() const {
    return denominator == 0.0 ? 0.0 : numerator / denominator;
  }
  std::string base() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%.10g %s / %.10g %s", numerator,
                  numerator_name.c_str(), denominator,
                  denominator_name.c_str());
    return buf;
  }
};

}  // namespace perfbench
