#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/error.h"

namespace coda {
namespace {

void check_inputs(const std::vector<double>& y_true,
                  const std::vector<double>& y_pred) {
  require(!y_true.empty(), "metric: empty input");
  require(y_true.size() == y_pred.size(), "metric: size mismatch");
}

double median_of(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const double lower =
        *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (m + lower) / 2.0;
  }
  return m;
}

double safe_log1p(double x) {
  require(x > -1.0, "log-error metric: value <= -1 not representable");
  return std::log1p(x);
}

bool as_label(double score) { return score >= 0.5; }

struct Confusion {
  double tp = 0, fp = 0, tn = 0, fn = 0;
};

Confusion confusion(const std::vector<double>& y_true,
                    const std::vector<double>& y_score) {
  Confusion c;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const bool truth = y_true[i] >= 0.5;
    const bool pred = as_label(y_score[i]);
    if (truth && pred) c.tp += 1;
    else if (!truth && pred) c.fp += 1;
    else if (truth && !pred) c.fn += 1;
    else c.tn += 1;
  }
  return c;
}

}  // namespace

double mse(const std::vector<double>& y_true,
           const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  double s = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const double d = y_true[i] - y_pred[i];
    s += d * d;
  }
  return s / static_cast<double>(y_true.size());
}

double rmse(const std::vector<double>& y_true,
            const std::vector<double>& y_pred) {
  return std::sqrt(mse(y_true, y_pred));
}

double mae(const std::vector<double>& y_true,
           const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  double s = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    s += std::abs(y_true[i] - y_pred[i]);
  }
  return s / static_cast<double>(y_true.size());
}

double mape(const std::vector<double>& y_true,
            const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    // Standard convention: skip zero-truth points (undefined percentage),
    // clamp nothing else.
    if (y_true[i] == 0.0) continue;
    s += std::abs((y_true[i] - y_pred[i]) / y_true[i]);
    ++n;
  }
  require(n > 0, "mape: all ground-truth values are zero");
  return 100.0 * s / static_cast<double>(n);
}

double r2(const std::vector<double>& y_true,
          const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  const double mean =
      std::accumulate(y_true.begin(), y_true.end(), 0.0) /
      static_cast<double>(y_true.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const double r = y_true[i] - y_pred[i];
    const double t = y_true[i] - mean;
    ss_res += r * r;
    ss_tot += t * t;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double msle(const std::vector<double>& y_true,
            const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  double s = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const double d = safe_log1p(y_true[i]) - safe_log1p(y_pred[i]);
    s += d * d;
  }
  return s / static_cast<double>(y_true.size());
}

double rmsle(const std::vector<double>& y_true,
             const std::vector<double>& y_pred) {
  return std::sqrt(msle(y_true, y_pred));
}

double median_absolute_error(const std::vector<double>& y_true,
                             const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  std::vector<double> abs_errors(y_true.size());
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    abs_errors[i] = std::abs(y_true[i] - y_pred[i]);
  }
  return median_of(std::move(abs_errors));
}

double median_absolute_log_error(const std::vector<double>& y_true,
                                 const std::vector<double>& y_pred) {
  check_inputs(y_true, y_pred);
  std::vector<double> abs_errors(y_true.size());
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    abs_errors[i] = std::abs(safe_log1p(y_true[i]) - safe_log1p(y_pred[i]));
  }
  return median_of(std::move(abs_errors));
}

double accuracy(const std::vector<double>& y_true,
                const std::vector<double>& y_score) {
  check_inputs(y_true, y_score);
  const auto c = confusion(y_true, y_score);
  return (c.tp + c.tn) / static_cast<double>(y_true.size());
}

double precision(const std::vector<double>& y_true,
                 const std::vector<double>& y_score) {
  check_inputs(y_true, y_score);
  const auto c = confusion(y_true, y_score);
  return (c.tp + c.fp) == 0.0 ? 0.0 : c.tp / (c.tp + c.fp);
}

double recall(const std::vector<double>& y_true,
              const std::vector<double>& y_score) {
  check_inputs(y_true, y_score);
  const auto c = confusion(y_true, y_score);
  return (c.tp + c.fn) == 0.0 ? 0.0 : c.tp / (c.tp + c.fn);
}

double f1_score(const std::vector<double>& y_true,
                const std::vector<double>& y_score) {
  const double p = precision(y_true, y_score);
  const double r = recall(y_true, y_score);
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double auc(const std::vector<double>& y_true,
           const std::vector<double>& y_score) {
  check_inputs(y_true, y_score);
  // Mann-Whitney U statistic with midrank tie handling.
  std::vector<std::size_t> order(y_true.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return y_score[a] < y_score[b];
  });
  std::vector<double> ranks(y_true.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() &&
           y_score[order[j + 1]] == y_score[order[i]]) {
      ++j;
    }
    const double mid_rank = (static_cast<double>(i) +
                             static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mid_rank;
    i = j + 1;
  }
  double n_pos = 0.0;
  double n_neg = 0.0;
  double rank_sum_pos = 0.0;
  for (std::size_t k = 0; k < y_true.size(); ++k) {
    if (y_true[k] >= 0.5) {
      n_pos += 1.0;
      rank_sum_pos += ranks[k];
    } else {
      n_neg += 1.0;
    }
  }
  require(n_pos > 0 && n_neg > 0, "auc: needs both classes present");
  return (rank_sum_pos - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg);
}

std::string metric_name(Metric m) {
  switch (m) {
    case Metric::kMse: return "mse";
    case Metric::kRmse: return "rmse";
    case Metric::kMae: return "mae";
    case Metric::kMape: return "mape";
    case Metric::kR2: return "r2";
    case Metric::kMsle: return "msle";
    case Metric::kRmsle: return "rmsle";
    case Metric::kMedianAe: return "median_ae";
    case Metric::kMedianAle: return "median_ale";
    case Metric::kAccuracy: return "accuracy";
    case Metric::kPrecision: return "precision";
    case Metric::kRecall: return "recall";
    case Metric::kF1: return "f1";
    case Metric::kAuc: return "auc";
  }
  throw InvalidArgument("metric_name: unknown metric");
}

Metric metric_from_name(const std::string& name) {
  static const std::pair<const char*, Metric> kTable[] = {
      {"mse", Metric::kMse},           {"rmse", Metric::kRmse},
      {"mae", Metric::kMae},           {"mape", Metric::kMape},
      {"r2", Metric::kR2},             {"msle", Metric::kMsle},
      {"rmsle", Metric::kRmsle},       {"median_ae", Metric::kMedianAe},
      {"median_ale", Metric::kMedianAle},
      {"accuracy", Metric::kAccuracy}, {"precision", Metric::kPrecision},
      {"recall", Metric::kRecall},     {"f1", Metric::kF1},
      {"auc", Metric::kAuc},
  };
  for (const auto& [n, m] : kTable) {
    if (name == n) return m;
  }
  throw NotFound("metric_from_name: unknown metric '" + name + "'");
}

bool higher_is_better(Metric m) {
  switch (m) {
    case Metric::kR2:
    case Metric::kAccuracy:
    case Metric::kPrecision:
    case Metric::kRecall:
    case Metric::kF1:
    case Metric::kAuc:
      return true;
    default:
      return false;
  }
}

double score(Metric m, const std::vector<double>& y_true,
             const std::vector<double>& y_pred) {
  switch (m) {
    case Metric::kMse: return mse(y_true, y_pred);
    case Metric::kRmse: return rmse(y_true, y_pred);
    case Metric::kMae: return mae(y_true, y_pred);
    case Metric::kMape: return mape(y_true, y_pred);
    case Metric::kR2: return r2(y_true, y_pred);
    case Metric::kMsle: return msle(y_true, y_pred);
    case Metric::kRmsle: return rmsle(y_true, y_pred);
    case Metric::kMedianAe: return median_absolute_error(y_true, y_pred);
    case Metric::kMedianAle: return median_absolute_log_error(y_true, y_pred);
    case Metric::kAccuracy: return accuracy(y_true, y_pred);
    case Metric::kPrecision: return precision(y_true, y_pred);
    case Metric::kRecall: return recall(y_true, y_pred);
    case Metric::kF1: return f1_score(y_true, y_pred);
    case Metric::kAuc: return auc(y_true, y_pred);
  }
  throw InvalidArgument("score: unknown metric");
}

std::pair<double, double> mean_stddev(const std::vector<double>& values) {
  if (values.empty()) return {0.0, 0.0};
  const double n = static_cast<double>(values.size());
  double sum = 0.0;
  for (const double v : values) sum += v;
  const double mean = sum / n;
  double var = 0.0;
  for (const double v : values) {
    const double d = v - mean;
    var += d * d;
  }
  return {mean, std::sqrt(var / n)};
}

}  // namespace coda
