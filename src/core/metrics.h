// Model scoring (Section III / IV-B): regression — MSE, RMSE, MAE, MAPE, R²,
// MSLE, RMSLE, median absolute error, median absolute log error;
// classification — accuracy, precision, recall, F1, AUC.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace coda {

enum class Metric {
  // Regression (lower is better unless noted).
  kMse,
  kRmse,
  kMae,
  kMape,          ///< mean absolute percentage error
  kR2,            ///< coefficient of determination (higher is better)
  kMsle,          ///< mean squared log error
  kRmsle,         ///< root mean squared log error
  kMedianAe,      ///< median absolute error
  kMedianAle,     ///< median absolute log error
  // Binary classification on scores in [0,1] (higher is better).
  kAccuracy,
  kPrecision,
  kRecall,
  kF1,
  kAuc,
};

/// Metric display name ("rmse", "f1", ...). Stable; used in DARR keys.
std::string metric_name(Metric m);

/// Parses a metric name; throws NotFound for unknown names.
Metric metric_from_name(const std::string& name);

/// True for metrics where larger scores are better (R², classification).
bool higher_is_better(Metric m);

/// Scores predictions against ground truth. For classification metrics,
/// `y_pred` holds scores in [0,1]; labels are thresholded at 0.5 (AUC uses
/// the raw scores). Throws InvalidArgument on size mismatch or empty input.
double score(Metric m, const std::vector<double>& y_true,
             const std::vector<double>& y_pred);

/// (mean, population stddev) of `values`, each sum accumulated in order;
/// (0, 0) when empty. Every fold summary (CachedResult, nested CV) and the
/// neural estimators' target standardization go through here, so a result
/// assembled from peers' fold segments is bit-identical to a local one.
std::pair<double, double> mean_stddev(const std::vector<double>& values);

// Individual metric functions (exposed for direct use and tests).
double mse(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double rmse(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double mae(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double mape(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double r2(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double msle(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double rmsle(const std::vector<double>& y_true, const std::vector<double>& y_pred);
double median_absolute_error(const std::vector<double>& y_true,
                             const std::vector<double>& y_pred);
double median_absolute_log_error(const std::vector<double>& y_true,
                                 const std::vector<double>& y_pred);
double accuracy(const std::vector<double>& y_true,
                const std::vector<double>& y_score);
double precision(const std::vector<double>& y_true,
                 const std::vector<double>& y_score);
double recall(const std::vector<double>& y_true,
              const std::vector<double>& y_score);
double f1_score(const std::vector<double>& y_true,
                const std::vector<double>& y_score);
double auc(const std::vector<double>& y_true,
           const std::vector<double>& y_score);

}  // namespace coda
