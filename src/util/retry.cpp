#include "src/util/retry.h"

#include <algorithm>
#include <cmath>

#include "src/util/random.h"

namespace coda {

void RetryPolicy::validate() const {
  require(max_attempts >= 1, "RetryPolicy: max_attempts must be >= 1");
  require(initial_backoff_seconds > 0.0,
          "RetryPolicy: initial backoff must be positive");
  require(multiplier >= 1.0, "RetryPolicy: multiplier must be >= 1");
  require(max_backoff_seconds >= initial_backoff_seconds,
          "RetryPolicy: max backoff below the initial backoff");
  require(jitter_fraction >= 0.0 && jitter_fraction <= multiplier - 1.0,
          "RetryPolicy: jitter_fraction must lie in [0, multiplier - 1] "
          "(keeps the backoff sequence monotone)");
  require(deadline_seconds > 0.0, "RetryPolicy: deadline must be positive");
}

double RetryPolicy::backoff_seconds(std::size_t retry_index) const {
  const double base =
      initial_backoff_seconds *
      std::pow(multiplier, static_cast<double>(retry_index));
  const double jitter =
      1.0 + jitter_fraction * unit(mix64(seed ^ (retry_index + 1)));
  return std::min(base * jitter, max_backoff_seconds);
}

BackoffSchedule::BackoffSchedule(const RetryPolicy& policy) : policy_(policy) {
  policy_.validate();
}

std::optional<double> BackoffSchedule::next() {
  if (retry_ + 1 >= policy_.max_attempts) return std::nullopt;
  const double wait = policy_.backoff_seconds(retry_);
  if (waited_ + wait > policy_.deadline_seconds) return std::nullopt;
  ++retry_;
  waited_ += wait;
  return wait;
}

}  // namespace coda
