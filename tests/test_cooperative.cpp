// Tests for cooperative multi-client graph search (Fig 2): complete results
// everywhere, near-zero redundant work, identical scores to a solo run.
#include <gtest/gtest.h>

#include <atomic>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/random_forest.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"

namespace coda::darr {
namespace {

Dataset dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 150;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  return make_regression(cfg);
}

TEGraph graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<KnnRegressor>());
  g.add_regression_models(std::move(models));
  return g;  // 9 candidates
}

TEST(Cooperative, AllClientsSeeCompleteResults) {
  const auto d = dataset();
  const auto g = graph();
  const auto report =
      run_cooperative_search(g, d, KFold(4), Metric::kRmse, 3);
  EXPECT_EQ(report.total_candidates, 9u);
  ASSERT_EQ(report.clients.size(), 3u);
  for (const auto& client : report.clients) {
    EXPECT_EQ(client.report.results.size(), 9u);
    for (const auto& r : client.report.results) {
      EXPECT_FALSE(r.failed);
    }
    EXPECT_EQ(client.evaluated_locally + client.served_from_cache, 9u);
  }
}

TEST(Cooperative, NoRedundantEvaluations) {
  const auto d = dataset();
  const auto g = graph();
  const auto report =
      run_cooperative_search(g, d, KFold(4), Metric::kRmse, 4);
  // Claims partition the space: total local work == candidate count.
  EXPECT_EQ(report.total_local_evaluations, report.total_candidates);
  EXPECT_EQ(report.redundant_evaluations, 0u);
  // Cooperation denied at least some claims (clients overlapped in time or
  // found stored results).
  const auto& counters = report.repository_counters;
  EXPECT_EQ(counters.stores, report.total_candidates);
}

TEST(Cooperative, AgreesWithSoloRunOnBestPipeline) {
  const auto d = dataset();
  const auto g = graph();
  const auto solo = run_cooperative_search(g, d, KFold(4), Metric::kRmse, 1);
  const auto crowd = run_cooperative_search(g, d, KFold(4), Metric::kRmse, 4);
  EXPECT_EQ(solo.clients[0].report.best().spec,
            crowd.clients[0].report.best().spec);
  EXPECT_DOUBLE_EQ(solo.clients[0].report.best().mean_score,
                   crowd.clients[0].report.best().mean_score);
  // Every client agrees on the winner.
  for (const auto& client : crowd.clients) {
    EXPECT_EQ(client.report.best().spec, solo.clients[0].report.best().spec);
  }
}

TEST(Cooperative, WorkIsActuallyDistributed) {
  // Evaluations must take long enough that thread-start skew cannot let one
  // client race through the entire graph alone, so use a heavier model.
  RegressionConfig data_cfg;
  data_cfg.n_samples = 400;
  data_cfg.n_features = 8;
  const auto d = make_regression(data_cfg);

  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<MinMaxScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<RandomForestRegressor>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<KnnRegressor>());
  g.add_regression_models(std::move(models));  // 12 candidates

  const auto report =
      run_cooperative_search(g, d, KFold(4), Metric::kRmse, 3);
  std::size_t max_local = 0;
  for (const auto& client : report.clients) {
    max_local = std::max(max_local, client.evaluated_locally);
  }
  EXPECT_LT(max_local, 12u);
  EXPECT_EQ(report.redundant_evaluations, 0u);
}

TEST(Cooperative, SingleClientDegeneratesToPlainSearch) {
  const auto d = dataset();
  const auto g = graph();
  const auto report =
      run_cooperative_search(g, d, KFold(3), Metric::kRmse, 1);
  EXPECT_EQ(report.clients[0].evaluated_locally, 9u);
  EXPECT_EQ(report.clients[0].served_from_cache, 0u);
  EXPECT_EQ(report.redundant_evaluations, 0u);
}

// Denies the first claim it sees, once, then forwards everything: the
// engine defers that candidate on its timer wheel and records a genuine
// claim wait when the retried claim is granted.
class DenyFirstClaim final : public ResultCache {
 public:
  explicit DenyFirstClaim(ResultCache* inner) : inner_(inner) {}
  std::optional<CachedResult> fetch(const std::string& key) override {
    return inner_->fetch(key);
  }
  std::vector<std::optional<CachedResult>> fetch_many(
      const std::vector<std::string>& keys) override {
    return inner_->fetch_many(keys);
  }
  bool claim(const std::string& key) override {
    if (!denied_.exchange(true)) return false;
    return inner_->claim(key);
  }
  void put(const std::string& key, const CachedResult& result) override {
    inner_->put(key, result);
  }
  void release(const std::string& key) override { inner_->release(key); }

 private:
  ResultCache* inner_;
  std::atomic<bool> denied_{false};
};

TEST(Cooperative, ClaimWaitP99CoversOnlyItsOwnRun) {
  const auto d = dataset();
  const auto g = graph();
  // Two back-to-back runs in one process, no obs::reset_all() between
  // them: only the first waits on a claim.
  const auto run = [&](bool deny_first_claim) {
    return run_cooperative_fleet(
        g.enumerate_candidates().size(), FleetOptions{},
        [&](std::size_t, ResultCache& cache) {
          DenyFirstClaim denying(&cache);
          EvalOptions eval;
          eval.threads = 1;
          eval.cache = deny_first_claim ? &denying : &cache;
          return GraphEvaluator(eval).evaluate(g, d, KFold(3));
        });
  };
  EXPECT_GT(run(true).claim_wait_p99_seconds, 0.0);
  EXPECT_EQ(run(false).claim_wait_p99_seconds, 0.0);
}

TEST(Cooperative, RejectsZeroClients) {
  const auto d = dataset();
  const auto g = graph();
  EXPECT_THROW(run_cooperative_search(g, d, KFold(3), Metric::kRmse, 0),
               InvalidArgument);
}

}  // namespace
}  // namespace coda::darr
