// Industrial time-series forecasting: the full Fig 11 pipeline graph.
//
// Generates a multivariate industrial sensor series (trend + daily cycle +
// AR noise + a regime shift), builds the standard Time Series Prediction
// graph (Data Scaling x Data Preprocessing x Modelling with compatibility
// edges), evaluates every legal path with the TimeSeriesSlidingSplit
// (Fig 12), and forecasts the next value with the winning pipeline.
#include <cstdio>

#include "src/data/synthetic.h"
#include "src/obs/obs.h"
#include "src/ts/forecast_graph.h"

using namespace coda;
using namespace coda::ts;

int main() {
  std::printf("=== coda industrial forecast: Fig 11 pipeline graph ===\n\n");

  IndustrialSeriesConfig series_cfg;
  series_cfg.n_variables = 3;
  series_cfg.length = 400;
  series_cfg.seasonal_period = 24;
  series_cfg.seasonal_amplitude = 2.0;
  series_cfg.noise_stddev = 0.2;
  const TimeSeries series = make_industrial_series(series_cfg);
  std::printf("series: %zu timestamps x %zu sensors\n", series.length(),
              series.n_variables());

  ForecastSpec spec;
  spec.history = 24;
  spec.horizon = 1;
  spec.target_var = 0;
  const ForecastGraph graph = ForecastGraph::standard(spec);
  std::printf("graph:  %zu scalers x %zu preprocessors x %zu models\n",
              graph.n_scalers(), graph.n_windowers(), graph.n_models());
  std::printf("paths:  %zu legal (full cartesian product would be %zu — "
              "compatibility edges prune the rest)\n\n",
              graph.enumerate().size(), graph.count_full_cartesian());

  EvalOptions config;
  config.metric = Metric::kRmse;
  ForecastGraphEvaluator evaluator(config);
  const TimeSeriesSlidingSplit cv(/*k=*/3, /*train=*/220, /*val=*/50,
                                  /*buffer=*/5);
  const EvaluationReport report = evaluator.evaluate(graph, series, cv);

  std::printf("%-78s %10s %8s\n", "path", "rmse", "+/-");
  std::printf("%.*s\n", 98,
              "--------------------------------------------------------------"
              "------------------------------------");
  for (const auto& r : report.results) {
    if (r.failed) {
      std::printf("%-78s %10s\n", r.spec.c_str(), "FAILED");
      continue;
    }
    std::printf("%-78s %10.4f %8.4f\n", r.spec.c_str(), r.mean_score,
                r.stddev);
  }

  // The Zero model is the paper's floor — show where it landed.
  double zero_best = 0.0;
  for (const auto& r : report.results) {
    if (!r.failed && r.spec.find("zeromodel") != std::string::npos) {
      zero_best = zero_best == 0.0 ? r.mean_score
                                   : std::min(zero_best, r.mean_score);
    }
  }
  std::printf("\nbest path:        %s\n", report.best().spec.c_str());
  std::printf("best CV RMSE:     %.4f\n", report.best().mean_score);
  std::printf("Zero-model floor: %.4f (the paper's baseline)\n", zero_best);

  ForecastPipeline best =
      ForecastGraphEvaluator::refit_best(graph, report, series);
  std::printf("\nnext-step forecast for sensor0: %.4f (last observed %.4f)\n",
              best.forecast_next(series),
              series.at(series.length() - 1, 0));
  coda::obs::dump_if_env();
  return 0;
}
