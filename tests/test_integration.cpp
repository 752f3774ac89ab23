// Cross-module integration tests: dirty-data pipelines end-to-end, DARR
// concurrency stress, cooperative result sharing with prefix discovery,
// and cache reuse across separate evaluator instances.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/evaluator.h"
#include "src/darr/client.h"
#include "src/darr/sharded.h"
#include "src/data/fingerprint.h"
#include "src/data/synthetic.h"
#include "src/ml/imputers.h"
#include "src/ml/linear.h"
#include "src/ml/outliers.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"
#include "src/util/hash.h"

namespace coda {
namespace {

TEST(Integration, DirtyDataPipelineEndToEnd) {
  // The Section II story: real data has missing cells and gross outliers;
  // a pipeline that cleans first must beat one that does not.
  RegressionConfig cfg;
  cfg.n_samples = 300;
  cfg.n_features = 8;
  cfg.n_informative = 5;
  cfg.nonlinear = false;
  cfg.noise_stddev = 0.3;
  auto dirty = make_regression(cfg);
  inject_missing(dirty, 0.05, 31);
  inject_outliers(dirty, 0.05, 50.0, 32);

  Pipeline cleaning;
  cleaning.add_transformer(std::make_unique<SimpleImputer>());
  cleaning.add_transformer(std::make_unique<ZScoreClipper>());
  cleaning.add_transformer(std::make_unique<StandardScaler>());
  cleaning.set_estimator(std::make_unique<LinearRegression>());
  const auto cleaned_score =
      cross_validate(cleaning, dirty, KFold(5), Metric::kRmse).mean_score;

  Pipeline naive;
  naive.add_transformer(std::make_unique<SimpleImputer>());  // must impute
  naive.set_estimator(std::make_unique<LinearRegression>());
  const auto naive_score =
      cross_validate(naive, dirty, KFold(5), Metric::kRmse).mean_score;

  EXPECT_LT(cleaned_score, naive_score);
}

TEST(Integration, DarrRepositoryConcurrencyStress) {
  // 8 threads hammer one repository over a shared key space; every key
  // must end up stored exactly once per producer win, with counters
  // internally consistent and no crashes/torn records.
  darr::DarrRepository repo;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 200;
  std::atomic<std::size_t> computed{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&repo, &computed, t] {
      const std::string me = "client" + std::to_string(t);
      for (std::size_t k = 0; k < kKeys; ++k) {
        const std::string key = "key" + std::to_string(k);
        if (repo.fetch(key)) continue;
        if (!repo.claim(key, me)) continue;
        darr::DarrRecord record;
        record.key = key;
        record.mean_score = static_cast<double>(k);
        record.producer = me;
        record.explanation = "spec" + std::to_string(k);
        repo.put(std::move(record));
        ++computed;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(repo.size(), kKeys);
  // Claims made storing exclusive: stores == keys and each key's record is
  // intact.
  EXPECT_EQ(repo.counters().stores, computed.load());
  EXPECT_EQ(computed.load(), kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    const auto record = repo.fetch("key" + std::to_string(k));
    ASSERT_TRUE(record.has_value());
    EXPECT_DOUBLE_EQ(record->mean_score, static_cast<double>(k));
    EXPECT_EQ(record->explanation, "spec" + std::to_string(k));
  }
}

TEST(Integration, DarrPrefixDiscoveryAcrossClients) {
  // "Users can determine from the DARR which calculations have been run
  // for a certain data set": records are keyed by the dataset fingerprint
  // prefix, so a second client can list everything computed for its data.
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 4;
  cfg.n_informative = 4;
  const auto data = make_regression(cfg);

  dist::SimNet net;
  darr::DarrCluster cluster(&net, {.n_shards = 1, .replication = 1});
  darr::DarrRepository& repo = cluster.shard(0);
  darr::DarrClient alice(&cluster, net.add_node("alice"));
  darr::DarrClient bob(&cluster, net.add_node("bob"));

  TEGraph g;
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<RandomForestRegressor>());
  g.add_regression_models(std::move(models));

  EvalOptions config;
  config.cache = &alice;
  GraphEvaluator evaluator(config);
  evaluator.evaluate(g, data, KFold(3));

  // Bob discovers what has been computed for this exact dataset.
  const std::string prefix = hash_to_hex(fingerprint(data)) + "|";
  const auto keys = repo.keys_with_prefix(prefix);
  EXPECT_EQ(keys.size(), 2u);
  for (const auto& key : keys) {
    const auto record = repo.fetch(key);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->producer, "alice");
    EXPECT_FALSE(record->explanation.empty());  // how it was achieved
    // Bob reads the shared result directly.
    EXPECT_TRUE(bob.fetch(key).has_value());
  }
  // A different dataset shares nothing.
  auto other = data;
  other.X(0, 0) += 1.0;
  EXPECT_TRUE(
      repo.keys_with_prefix(hash_to_hex(fingerprint(other)) + "|").empty());
}

TEST(Integration, CacheReuseAcrossEvaluatorInstances) {
  RegressionConfig cfg;
  cfg.n_samples = 100;
  cfg.n_features = 4;
  cfg.n_informative = 4;
  const auto data = make_regression(cfg);
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  g.add_regression_models(std::move(models));

  LocalResultCache cache;
  EvalOptions config;
  config.cache = &cache;
  const auto first = GraphEvaluator(config).evaluate(g, data, KFold(4));
  // A different evaluator instance (e.g. a later session) reuses the
  // shared results wholesale.
  const auto second = GraphEvaluator(config).evaluate(g, data, KFold(4));
  EXPECT_EQ(second.evaluated_locally, 0u);
  EXPECT_EQ(second.served_from_cache, first.results.size());
  // But a different metric is a different calculation: recomputed.
  EvalOptions mae_config = config;
  mae_config.metric = Metric::kMae;
  const auto third = GraphEvaluator(mae_config).evaluate(g, data, KFold(4));
  EXPECT_EQ(third.evaluated_locally, first.results.size());
}

}  // namespace
}  // namespace coda
