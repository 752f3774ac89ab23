// Tests for the Fig 11 forecast graph: compatibility-edge wiring, path
// enumeration vs the full cartesian product, instantiation (n_vars), and
// end-to-end evaluation.
#include <gtest/gtest.h>

#include <cmath>

#include "src/data/synthetic.h"
#include "src/ml/scalers.h"
#include "src/ts/forecast_graph.h"
#include "src/ts/forecasters.h"

namespace coda::ts {
namespace {

TimeSeries small_series() {
  IndustrialSeriesConfig cfg;
  cfg.length = 140;
  cfg.n_variables = 2;
  return make_industrial_series(cfg);
}

TEST(ForecastGraph, StandardShape) {
  ForecastSpec spec;
  const auto g = ForecastGraph::standard(spec);
  EXPECT_EQ(g.n_scalers(), 4u);
  EXPECT_EQ(g.n_windowers(), 4u);
  EXPECT_EQ(g.n_models(), 12u);
}

TEST(ForecastGraph, CompatibilityEdgesPrune) {
  ForecastSpec spec;
  const auto g = ForecastGraph::standard(spec);
  const auto candidates = g.enumerate();
  // cascaded feeds 7 models, flat 2, iid 2, asis 1 -> 12 pairs x 4 scalers.
  EXPECT_EQ(candidates.size(), 48u);
  EXPECT_EQ(g.count_full_cartesian(), 4u * 4u * 12u);
  EXPECT_LT(candidates.size(), g.count_full_cartesian());
}

TEST(ForecastGraph, NoIllegalPairEnumerated) {
  ForecastSpec spec;
  const auto g = ForecastGraph::standard(spec);
  for (const auto& c : g.enumerate()) {
    // instantiate() revalidates the pair; it must never throw here.
    EXPECT_NO_THROW(g.instantiate(c, 2));
  }
}

TEST(ForecastGraph, InstantiateSetsNVarsOnTemporalModels) {
  ForecastSpec spec;
  spec.history = 6;
  const auto g = ForecastGraph::standard(spec);
  for (const auto& c : g.enumerate()) {
    const auto p = g.instantiate(c, 3);
    if (p.model().params().contains("n_vars")) {
      EXPECT_EQ(p.model().params().get_int("n_vars"), 3);
    }
  }
}

TEST(ForecastGraph, IncompatiblePairRejected) {
  ForecastSpec spec;
  const auto g = ForecastGraph::standard(spec);
  ForecastGraph::Candidate bad{0, 3 /*asis*/, 0 /*lstm_simple*/};
  EXPECT_THROW(g.instantiate(bad, 2), InvalidArgument);
}

TEST(ForecastGraph, DuplicateModelNameRejected) {
  ForecastSpec spec;
  ForecastGraph g(spec);
  g.add_model(std::make_unique<ZeroModel>(), "asis");
  EXPECT_THROW(g.add_model(std::make_unique<ZeroModel>(), "asis"),
               InvalidArgument);
}

TEST(ForecastGraph, DotRendersStagesAndEdges) {
  ForecastSpec spec;
  const auto g = ForecastGraph::standard(spec);
  const auto dot = g.to_dot();
  EXPECT_NE(dot.find("Data Scaling"), std::string::npos);
  EXPECT_NE(dot.find("Data Preprocessing"), std::string::npos);
  EXPECT_NE(dot.find("Modelling"), std::string::npos);
  EXPECT_NE(dot.find("\"cascadedwindows\" -> \"lstm_simple\""),
            std::string::npos);
  EXPECT_NE(dot.find("\"ts_as_is\" -> \"zeromodel\""), std::string::npos);
  // Illegal edge must not be drawn.
  EXPECT_EQ(dot.find("\"ts_as_is\" -> \"lstm_simple\""), std::string::npos);
}

TEST(ForecastGraphEvaluator, SmallGraphEndToEnd) {
  // A reduced graph (statistical models only) keeps this fast while still
  // covering the evaluator path; the full standard graph runs in the bench.
  // Strong seasonality + weak noise makes the AR-vs-persistence ordering
  // deterministic.
  IndustrialSeriesConfig cfg;
  cfg.length = 300;
  cfg.n_variables = 2;
  cfg.seasonal_amplitude = 3.0;
  cfg.noise_stddev = 0.1;
  cfg.ar_coefficient = 0.2;
  cfg.regime_shifts = 0;
  const auto series = make_industrial_series(cfg);
  ForecastSpec spec;
  spec.history = 24;
  ForecastGraph g(spec);
  g.add_scaler(std::make_unique<StandardScaler>());
  g.add_scaler(std::make_unique<NoOp>());
  g.add_windower(std::make_unique<CascadedWindows>(), "cascaded");
  g.add_windower(std::make_unique<TsAsIs>(), "asis");
  g.add_model(std::make_unique<ArModel>(), "cascaded");
  g.add_model(std::make_unique<ZeroModel>(), "asis");

  EvalOptions config;
  config.metric = Metric::kRmse;
  ForecastGraphEvaluator evaluator(config);
  TimeSeriesSlidingSplit cv(2, 180, 40, 5);
  const auto report = evaluator.evaluate(g, series, cv);
  EXPECT_EQ(report.results.size(), 4u);
  for (const auto& r : report.results) {
    EXPECT_FALSE(r.failed) << r.spec << ": " << r.failure_message;
    EXPECT_EQ(r.fold_scores.size(), 2u);
  }
  // The AR model on cascaded windows should beat persistence on this
  // autocorrelated series.
  EXPECT_NE(report.best().spec.find("armodel"), std::string::npos);
}

TEST(ForecastGraphEvaluator, CacheSecondRunFree) {
  const auto series = small_series();
  ForecastSpec spec;
  spec.history = 8;
  ForecastGraph g(spec);
  g.add_scaler(std::make_unique<NoOp>());
  g.add_windower(std::make_unique<TsAsIs>(), "asis");
  g.add_model(std::make_unique<ZeroModel>(), "asis");

  LocalResultCache cache;
  EvalOptions config;
  config.cache = &cache;
  ForecastGraphEvaluator evaluator(config);
  TimeSeriesSlidingSplit cv(2, 60, 20, 0);
  const auto first = evaluator.evaluate(g, series, cv);
  EXPECT_EQ(first.evaluated_locally, 1u);
  const auto second = evaluator.evaluate(g, series, cv);
  EXPECT_EQ(second.served_from_cache, 1u);
  EXPECT_DOUBLE_EQ(second.best().mean_score, first.best().mean_score);
}

TEST(ForecastGraphEvaluator, RefitBestForecasts) {
  const auto series = small_series();
  ForecastSpec spec;
  spec.history = 12;
  ForecastGraph g(spec);
  g.add_scaler(std::make_unique<StandardScaler>());
  g.add_windower(std::make_unique<CascadedWindows>(), "cascaded");
  g.add_model(std::make_unique<ArModel>(), "cascaded");

  ForecastGraphEvaluator evaluator{EvalOptions{}};
  TimeSeriesSlidingSplit cv(2, 80, 20, 5);
  const auto report = evaluator.evaluate(g, series, cv);
  auto best = ForecastGraphEvaluator::refit_best(g, report, series);
  EXPECT_TRUE(std::isfinite(best.forecast_next(series)));
}

}  // namespace
}  // namespace coda::ts
