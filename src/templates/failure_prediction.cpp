#include "src/templates/failure_prediction.h"

#include <algorithm>

#include "src/ml/knn.h"
#include "src/ml/lda.h"
#include "src/ml/linear.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"

namespace coda::templates {

FailurePredictionAnalysis::FailurePredictionAnalysis()
    : FailurePredictionAnalysis(Config()) {}

FailurePredictionAnalysis::FailurePredictionAnalysis(Config config)
    : config_(config) {
  require(config_.k_folds >= 2, "FailurePredictionAnalysis: k_folds >= 2");
}

TEGraph FailurePredictionAnalysis::search_graph() {
  // The template's opinionated graph: users provide only data.
  TEGraph graph;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  graph.add_feature_scalers(std::move(scalers));

  // Optional supervised projection: LDA concentrates the failure signal
  // into one discriminant direction (Table I lists LDA among the
  // feature-transformation options).
  std::vector<std::unique_ptr<Transformer>> transforms;
  transforms.push_back(std::make_unique<LinearDiscriminantAnalysis>());
  auto noop = std::make_unique<NoOp>();
  noop->set_name("noop_transform");
  transforms.push_back(std::move(noop));
  graph.add_preprocessors("feature_transformation", std::move(transforms));

  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LogisticRegression>());
  models.push_back(std::make_unique<RandomForestClassifier>());
  models.push_back(std::make_unique<KnnClassifier>());
  models.push_back(std::make_unique<GaussianNaiveBayes>());
  graph.add_classification_models(std::move(models));
  return graph;
}

FailurePredictionResult FailurePredictionAnalysis::run(
    const Dataset& data) const {
  data.validate();
  for (const double label : data.y) {
    require(label == 0.0 || label == 1.0,
            "FailurePredictionAnalysis: labels must be 0/1");
  }

  const TEGraph graph = search_graph();

  EvalOptions eval_config;
  eval_config.metric = Metric::kF1;
  eval_config.threads = config_.threads;
  eval_config.search = config_.search;
  eval_config.cache = config_.cache;
  GraphEvaluator evaluator(eval_config);
  KFold cv(config_.k_folds, /*shuffle=*/true, config_.seed);

  FailurePredictionResult result;
  result.search = evaluator.evaluate(graph, data, cv);
  result.best = GraphEvaluator::refit_best(graph, result.search, data);
  result.best_f1 = result.search.best().mean_score;

  // AUC on a held-out split (trained on the train side only).
  const auto [train, test] = train_test_split(data, 0.75, config_.seed);
  Pipeline holdout = result.best;
  holdout.fit(train.X, train.y);
  result.best_auc = auc(test.y, holdout.predict(test.X));

  // Sensor importances from a dedicated forest probe (interpretability,
  // §II: "how much contribution a factor is making").
  RandomForestClassifier forest;
  forest.fit(data.X, data.y);
  const auto importances = forest.feature_importances();
  for (std::size_t j = 0; j < importances.size(); ++j) {
    const std::string name = j < data.feature_names.size()
                                 ? data.feature_names[j]
                                 : "sensor" + std::to_string(j);
    result.top_sensors.emplace_back(name, importances[j]);
  }
  std::sort(result.top_sensors.begin(), result.top_sensors.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return result;
}

}  // namespace coda::templates
