// Quickstart: the paper's Listing 1 + Listing 2 workflow in C++.
//
// Builds the Fig 3 Transformer-Estimator Graph for a regression task —
// feature scaling (MinMax / Standard / Robust / none) x feature selection
// (PCA / SelectKBest / none) x models (DecisionTree / MLP / RandomForest),
// 36 pipelines in total — evaluates every path with cross-validation, and
// reports the best pipeline.
#include <cstdio>

#include "src/core/evaluator.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/feature_selection.h"
#include "src/ml/mlp.h"
#include "src/ml/pca.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"

using namespace coda;

namespace {

// The prepare_graph() of Listing 1.
TEGraph prepare_graph() {
  TEGraph task;

  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<MinMaxScaler>());
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  task.add_feature_scalers(std::move(scalers));

  std::vector<std::unique_ptr<Transformer>> selectors;
  auto pca = std::make_unique<PCA>();
  pca->set_param("n_components", std::int64_t{4});
  selectors.push_back(std::move(pca));
  auto select_k = std::make_unique<SelectKBest>();
  select_k->set_param("k", std::int64_t{6});
  selectors.push_back(std::move(select_k));
  auto noop = std::make_unique<NoOp>();
  noop->set_name("noop_select");
  selectors.push_back(std::move(noop));
  task.add_feature_selectors(std::move(selectors));

  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<MlpRegressor>());
  models.push_back(std::make_unique<RandomForestRegressor>());
  task.add_regression_models(std::move(models));
  return task;
}

}  // namespace

int main() {
  std::printf("=== coda quickstart: Fig 3 regression graph ===\n\n");

  // A synthetic regression workload (see DESIGN.md: substitution for the
  // paper's proprietary customer data).
  RegressionConfig data_cfg;
  data_cfg.n_samples = 400;
  data_cfg.n_features = 12;
  data_cfg.n_informative = 6;
  const Dataset data = make_regression(data_cfg);
  std::printf("dataset: %zu samples x %zu features\n", data.n_samples(),
              data.n_features());

  const TEGraph graph = prepare_graph();
  std::printf("graph:   %zu stages, %zu pipelines\n\n", graph.n_stages(),
              graph.count_paths());

  // pipeline_evaluation() of Listing 2: 5-fold CV, RMSE scoring.
  EvalOptions config;
  config.metric = Metric::kRmse;
  GraphEvaluator evaluator(config);
  const KFold cv(5);
  const EvaluationReport report = evaluator.evaluate(graph, data, cv);

  std::printf("%-72s %10s %8s\n", "pipeline", "rmse", "+/-");
  std::printf("%.*s\n", 92,
              "--------------------------------------------------------------"
              "------------------------------");
  for (const auto& r : report.results) {
    if (r.failed) {
      std::printf("%-72s %10s (%s)\n", r.spec.c_str(), "FAILED",
                  r.failure_message.c_str());
      continue;
    }
    std::printf("%-72s %10.4f %8.4f\n", r.spec.c_str(), r.mean_score,
                r.stddev);
  }
  std::printf("\nbest pipeline: %s\n", report.best().spec.c_str());
  std::printf("best CV RMSE:  %.4f (evaluated %zu candidates in %.2fs)\n",
              report.best().mean_score, report.results.size(),
              report.total_seconds);

  // Refit the winner on all data and predict a few points.
  Pipeline best = GraphEvaluator::refit_best(graph, report, data);
  const auto predictions = best.predict(data.X);
  std::printf("\nsample predictions (truth -> predicted):\n");
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf("  %8.3f -> %8.3f\n", data.y[i], predictions[i]);
  }

  // The "create_graph" visual output (Listing 1): Graphviz DOT.
  std::printf("\nGraphviz of the graph (render with `dot -Tpng`):\n%s\n",
              graph.to_dot("fig3").c_str());
  coda::obs::dump_if_env();
  return 0;
}
