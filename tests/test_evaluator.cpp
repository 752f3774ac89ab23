// Tests for cross-validated graph evaluation: best-path selection, failure
// isolation, parallelism, and cache/claim cooperation semantics.
#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear.h"
#include "src/ml/pca.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"

namespace coda {
namespace {

Dataset linear_dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 4;
  cfg.n_informative = 4;
  cfg.nonlinear = false;
  cfg.noise_stddev = 0.05;
  return make_regression(cfg);
}

TEGraph small_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  g.add_regression_models(std::move(models));
  return g;
}

TEST(CrossValidate, ProducesFoldScores) {
  const auto d = linear_dataset();
  Pipeline p;
  p.set_estimator(std::make_unique<LinearRegression>());
  const auto result = cross_validate(p, d, KFold(5), Metric::kRmse);
  EXPECT_EQ(result.fold_scores.size(), 5u);
  EXPECT_LT(result.mean_score, 0.2);  // near-noiseless linear data
  EXPECT_GE(result.stddev, 0.0);
  EXPECT_EQ(result.explanation, "linearregression");
}

TEST(GraphEvaluator, LinearModelWinsOnLinearData) {
  const auto d = linear_dataset();
  const auto g = small_graph();
  GraphEvaluator evaluator{EvalOptions{}};
  const auto report = evaluator.evaluate(g, d, KFold(5));
  EXPECT_EQ(report.results.size(), 4u);
  EXPECT_NE(report.best().spec.find("linearregression"), std::string::npos);
  EXPECT_EQ(report.evaluated_locally, 4u);
  EXPECT_EQ(report.served_from_cache, 0u);
}

TEST(GraphEvaluator, HigherIsBetterMetricsMaximize) {
  ClassificationConfig cfg;
  cfg.n_samples = 150;
  const auto d = make_classification(cfg);
  TEGraph g;
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LogisticRegression>());
  g.add_classification_models(std::move(models));
  EvalOptions config;
  config.metric = Metric::kAuc;
  GraphEvaluator evaluator(config);
  const auto report = evaluator.evaluate(g, d, KFold(4));
  EXPECT_GT(report.best().mean_score, 0.8);
}

TEST(GraphEvaluator, FailedCandidateIsolatedNotFatal) {
  const auto d = linear_dataset();  // 4 features
  TEGraph g;
  std::vector<StageOption> selectors;
  auto bad_pca = std::make_unique<PCA>();
  bad_pca->set_param("n_components", std::int64_t{99});  // will throw in fit
  selectors.push_back(make_option(std::move(bad_pca)));
  selectors.push_back(make_option(std::make_unique<NoOp>()));
  g.add_stage("select", std::move(selectors));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  g.add_regression_models(std::move(models));

  GraphEvaluator evaluator{EvalOptions{}};
  const auto report = evaluator.evaluate(g, d, KFold(3));
  ASSERT_EQ(report.results.size(), 2u);
  std::size_t failed = 0;
  for (const auto& r : report.results) {
    if (r.failed) {
      ++failed;
      EXPECT_FALSE(r.failure_message.empty());
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_FALSE(report.best().failed);
}

TEST(GraphEvaluator, AllCandidatesFailedThrows) {
  const auto d = linear_dataset();
  TEGraph g;
  std::vector<StageOption> selectors;
  auto bad_pca = std::make_unique<PCA>();
  bad_pca->set_param("n_components", std::int64_t{99});
  selectors.push_back(make_option(std::move(bad_pca)));
  g.add_stage("select", std::move(selectors));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  g.add_regression_models(std::move(models));
  GraphEvaluator evaluator{EvalOptions{}};
  EXPECT_THROW(evaluator.evaluate(g, d, KFold(3)), StateError);
}

TEST(GraphEvaluator, SerialAndParallelAgree) {
  const auto d = linear_dataset();
  const auto g = small_graph();
  EvalOptions serial;
  serial.threads = 1;
  EvalOptions parallel;
  parallel.threads = 4;
  const auto a = GraphEvaluator(serial).evaluate(g, d, KFold(5));
  const auto b = GraphEvaluator(parallel).evaluate(g, d, KFold(5));
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].spec, b.results[i].spec);
    EXPECT_DOUBLE_EQ(a.results[i].mean_score, b.results[i].mean_score);
  }
  EXPECT_EQ(a.best().spec, b.best().spec);
}

TEST(GraphEvaluator, CacheServesSecondRun) {
  const auto d = linear_dataset();
  const auto g = small_graph();
  LocalResultCache cache;
  EvalOptions config;
  config.cache = &cache;
  GraphEvaluator evaluator(config);
  auto& cached = obs::counter("eval.candidate.cached");
  const std::uint64_t cached_before = cached.value();
  const auto first = evaluator.evaluate(g, d, KFold(5));
  EXPECT_EQ(first.evaluated_locally, 4u);
  const auto second = evaluator.evaluate(g, d, KFold(5));
  EXPECT_EQ(second.served_from_cache, 4u);
  EXPECT_EQ(second.evaluated_locally, 0u);
  EXPECT_EQ(second.best().spec, first.best().spec);
  EXPECT_DOUBLE_EQ(second.best().mean_score, first.best().mean_score);
  // The cached re-run must show up in the registry as cache-served
  // candidates.
  EXPECT_EQ(cached.value() - cached_before, 4u);
  // Cache-served candidates report near-zero eval time (satellite fix:
  // eval_seconds no longer includes the full first-run wall time).
  for (const auto& r : second.results) {
    EXPECT_TRUE(r.from_cache);
    EXPECT_LT(r.eval_seconds, 0.5);
    EXPECT_GE(r.claim_wait_seconds, 0.0);
  }
}

TEST(GraphEvaluator, CacheKeySensitivity) {
  const auto d = linear_dataset();
  const KFold cv5(5);
  const KFold cv3(3);
  const std::string base =
      GraphEvaluator::cache_key(d, "spec", cv5, Metric::kRmse);
  EXPECT_NE(base, GraphEvaluator::cache_key(d, "spec2", cv5, Metric::kRmse));
  EXPECT_NE(base, GraphEvaluator::cache_key(d, "spec", cv3, Metric::kRmse));
  EXPECT_NE(base, GraphEvaluator::cache_key(d, "spec", cv5, Metric::kMae));
  auto d2 = d;
  d2.X(0, 0) += 1.0;
  EXPECT_NE(base, GraphEvaluator::cache_key(d2, "spec", cv5, Metric::kRmse));
  EXPECT_EQ(base, GraphEvaluator::cache_key(d, "spec", cv5, Metric::kRmse));
}

TEST(GraphEvaluator, RefitBestReturnsFittedPipeline) {
  const auto d = linear_dataset();
  const auto g = small_graph();
  GraphEvaluator evaluator{EvalOptions{}};
  const auto report = evaluator.evaluate(g, d, KFold(5));
  Pipeline best = GraphEvaluator::refit_best(g, report, d);
  EXPECT_TRUE(best.is_fitted());
  const auto pred = best.predict(d.X);
  EXPECT_LT(rmse(d.y, pred), 0.2);
}

TEST(LocalResultCache, ClaimSemantics) {
  LocalResultCache cache;
  EXPECT_TRUE(cache.claim("k"));
  EXPECT_FALSE(cache.claim("k"));  // already claimed
  cache.release("k");
  EXPECT_TRUE(cache.claim("k"));   // claim released
  CachedResult r;
  r.mean_score = 1.0;
  cache.put("k", r);
  EXPECT_TRUE(cache.claim("k"));   // stored: claim says "go look it up"
  ASSERT_TRUE(cache.fetch("k").has_value());
  EXPECT_DOUBLE_EQ(cache.fetch("k")->mean_score, 1.0);
}

TEST(EvaluationReport, BestOnEmptyThrows) {
  EvaluationReport report;
  EXPECT_THROW(report.best(), StateError);
}

}  // namespace
}  // namespace coda
