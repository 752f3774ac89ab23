#include "src/ts/forecast_pipeline.h"

#include <tuple>

#include "src/obs/obs.h"
#include "src/util/stopwatch.h"

namespace coda::ts {

ForecastPipeline::ForecastPipeline(std::unique_ptr<Transformer> scaler,
                                   std::unique_ptr<WindowMaker> windower,
                                   std::unique_ptr<Estimator> model,
                                   ForecastSpec spec)
    : scaler_(std::move(scaler)),
      windower_(std::move(windower)),
      model_(std::move(model)),
      spec_(spec) {
  require(scaler_ != nullptr && windower_ != nullptr && model_ != nullptr,
          "ForecastPipeline: null stage");
  require(spec_.history >= 1 && spec_.horizon >= 1,
          "ForecastPipeline: bad spec");
}

ForecastPipeline::ForecastPipeline(const ForecastPipeline& other)
    : scaler_(other.scaler_->clone_transformer()),
      windower_(other.windower_->clone()),
      model_(other.model_->clone_estimator()),
      spec_(other.spec_),
      fitted_(other.fitted_) {}

ForecastPipeline& ForecastPipeline::operator=(const ForecastPipeline& other) {
  if (this != &other) {
    ForecastPipeline copy(other);
    *this = std::move(copy);
  }
  return *this;
}

std::string ForecastPipeline::spec_string() const {
  return scaler_->spec() + " -> " + windower_->name() + " -> " +
         model_->spec();
}

WindowedData ForecastPipeline::build_windows(const TimeSeries& series) const {
  const Matrix scaled = scaler_->transform(series.values());
  return windower_->build(scaled, series.values(), spec_);
}

WindowedData ForecastPipeline::prepare_windows(const TimeSeries& series,
                                               std::size_t train_begin,
                                               std::size_t train_end) {
  require(train_begin < train_end && train_end <= series.length(),
          "ForecastPipeline::prepare_windows: bad training range");
  // Fit the scaler on training timestamps only (no look-ahead leakage),
  // then apply it to the whole series.
  const TimeSeries train_slice = series.slice(train_begin, train_end);
  static const std::vector<double> kNoTargets;
  scaler_->fit(train_slice.values(), kNoTargets);
  return build_windows(series);
}

void ForecastPipeline::fit_prepared(const TimeSeries& series,
                                    std::size_t train_begin,
                                    std::size_t train_end,
                                    const WindowedData& windows) {
  require(train_begin < train_end && train_end <= series.length(),
          "ForecastPipeline::fit_prepared: bad training range");
  // Re-fitting the scaler is cheap and deterministic; it keeps this
  // pipeline usable for predict_range/forecast_next even when `windows`
  // was computed by a sibling pipeline (the engine's prefix memo).
  // The scaler refit and the training-row copy are one region, so the
  // fit phase's breakdown shows them beside the model's own fit.
  obs::Region train_rows_region(obs::region_id<"ts.train_rows">());
  const TimeSeries train_slice = series.slice(train_begin, train_end);
  static const std::vector<double> kNoTargets;
  scaler_->fit(train_slice.values(), kNoTargets);

  std::vector<std::size_t> train_rows;
  for (std::size_t i = 0; i < windows.y.size(); ++i) {
    if (windows.span_starts[i] >= train_begin &&
        windows.target_times[i] < train_end) {
      train_rows.push_back(i);
    }
  }
  require(!train_rows.empty(),
          "ForecastPipeline::fit: training range too short for " +
              windower_->name());
  std::vector<double> train_y;
  train_y.reserve(train_rows.size());
  for (const std::size_t i : train_rows) train_y.push_back(windows.y[i]);
  const Matrix train_X = windows.X.select_rows(train_rows);
  train_rows_region.stop();
  model_->fit(train_X, train_y);
  fitted_ = true;
}

void ForecastPipeline::fit(const TimeSeries& series, std::size_t train_begin,
                           std::size_t train_end) {
  require(train_begin < train_end && train_end <= series.length(),
          "ForecastPipeline::fit: bad training range");
  const WindowedData wd = prepare_windows(series, train_begin, train_end);
  fit_prepared(series, train_begin, train_end, wd);
}

void ForecastPipeline::fit_full(const TimeSeries& series) {
  fit(series, 0, series.length());
}

std::pair<std::vector<double>, std::vector<double>>
ForecastPipeline::predict_range(const TimeSeries& series,
                                std::size_t target_begin,
                                std::size_t target_end) const {
  require_state(fitted_, "ForecastPipeline::predict_range: call fit() first");
  require(target_begin < target_end && target_end <= series.length(),
          "ForecastPipeline::predict_range: bad target range");
  return predict_range_prepared(build_windows(series), target_begin,
                                target_end);
}

std::pair<std::vector<double>, std::vector<double>>
ForecastPipeline::predict_range_prepared(const WindowedData& windows,
                                         std::size_t target_begin,
                                         std::size_t target_end) const {
  require_state(fitted_,
                "ForecastPipeline::predict_range: call fit() first");
  require(target_begin < target_end,
          "ForecastPipeline::predict_range: bad target range");
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < windows.y.size(); ++i) {
    if (windows.target_times[i] >= target_begin &&
        windows.target_times[i] < target_end) {
      rows.push_back(i);
    }
  }
  require(!rows.empty(),
          "ForecastPipeline::predict_range: no windows target the range");
  std::vector<double> truth;
  truth.reserve(rows.size());
  for (const std::size_t i : rows) truth.push_back(windows.y[i]);
  return {model_->predict(windows.X.select_rows(rows)), std::move(truth)};
}

double ForecastPipeline::forecast_next(const TimeSeries& series) const {
  require_state(fitted_, "ForecastPipeline::forecast_next: call fit() first");
  const std::size_t L = series.length();
  require(L >= 1, "ForecastPipeline::forecast_next: empty series");
  // Extend the series with `horizon` placeholder rows (copies of the last
  // observation). The final window's features only read real timestamps;
  // the placeholders exist solely so the windower emits a row whose target
  // is the first unobserved timestamp.
  Matrix extended(L + spec_.horizon, series.n_variables());
  for (std::size_t t = 0; t < L; ++t) {
    for (std::size_t c = 0; c < series.n_variables(); ++c) {
      extended(t, c) = series.values()(t, c);
    }
  }
  for (std::size_t t = L; t < extended.rows(); ++t) {
    for (std::size_t c = 0; c < series.n_variables(); ++c) {
      extended(t, c) = series.values()(L - 1, c);
    }
  }
  const Matrix scaled = scaler_->transform(extended);
  const WindowedData wd = windower_->build(scaled, extended, spec_);
  const std::size_t want_target = L + spec_.horizon - 1;
  for (std::size_t i = wd.y.size(); i-- > 0;) {
    if (wd.target_times[i] == want_target) {
      std::vector<std::size_t> row{i};
      return model_->predict(wd.X.select_rows(row)).front();
    }
  }
  throw StateError("ForecastPipeline::forecast_next: no window reaches past "
                   "the series end");
}

CachedResult evaluate_forecast(const ForecastPipeline& pipeline,
                               const TimeSeries& series,
                               const TimeSeriesSlidingSplit& cv,
                               Metric metric) {
  static auto& fold_seconds = obs::histogram("cv.fold.seconds");
  const obs::Region cv_span(obs::region_id<"cv.evaluate_forecast">(),
                            obs::kTraced);

  const auto splits = cv.splits(series.length());
  CachedResult result;
  result.explanation = pipeline.spec_string();
  result.fold_scores.reserve(splits.size());
  for (const auto& split : splits) {
    Stopwatch fold_timer;
    ForecastPipeline fold = pipeline;  // independent copy per fold
    const std::size_t a = split.train.front();
    const std::size_t b = split.train.back() + 1;
    const std::size_t c = split.test.front();
    const std::size_t d = split.test.back() + 1;
    fold.fit(series, a, b);
    const auto [pred, truth] = fold.predict_range(series, c, d);
    result.fold_scores.push_back(score(metric, truth, pred));
    fold_seconds.observe(fold_timer.elapsed_seconds());
  }
  std::tie(result.mean_score, result.stddev) =
      mean_stddev(result.fold_scores);
  return result;
}

}  // namespace coda::ts
