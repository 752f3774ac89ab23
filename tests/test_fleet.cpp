// Fleet-scale cooperative searches (ctest label `fleet`): hundreds to a
// thousand clients sharing one sharded, replicated DARR tier, each through
// its own DarrClient. These runs assert the headline scaling invariants:
// zero redundant evaluations at thousand-client scale, redundancy-avoided
// growing linearly with fleet size, replicated stores landing on every
// owner, and a four-shard tier electing the same best pipeline as the
// single-shard repository.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"

namespace coda {
namespace {

Dataset tabular_dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  return make_regression(cfg);
}

TEGraph tabular_graph() {
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

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_all(); }
};

TEST_F(FleetTest, ThousandClientFleetCooperatesWithZeroRedundancy) {
  const Dataset data = tabular_dataset();
  const TEGraph graph = tabular_graph();

  darr::FleetOptions options;
  options.n_clients = 1024;
  options.n_shards = 4;
  options.replication = 2;
  options.max_parallel_clients = 16;  // bounded waves, not 1024 threads
  options.telemetry = false;
  const auto report =
      darr::run_cooperative_search(graph, data, KFold(3), Metric::kRmse,
                                   options);

  ASSERT_EQ(report.clients.size(), 1024u);
  EXPECT_EQ(report.total_candidates, 9u);
  // The whole fleet computed each candidate exactly once...
  EXPECT_EQ(report.total_local_evaluations, 9u);
  EXPECT_EQ(report.redundant_evaluations, 0u);
  // ...and everyone else read it from the DARR: (1024 clients x 9
  // candidates) - 9 computations.
  EXPECT_EQ(report.redundancy_avoided, 1024u * 9u - 9u);
  for (const auto& client : report.clients) {
    EXPECT_EQ(client.evaluated_locally + client.served_from_cache, 9u)
        << client.name;
    EXPECT_EQ(client.report.best().spec, report.clients[0].report.best().spec)
        << client.name;
  }
  // Replication factor 2, fault-free fabric: every record landed on both
  // of its owners, and no replica sync was lost.
  EXPECT_EQ(report.n_shards, 4u);
  EXPECT_EQ(report.replication, 2u);
  EXPECT_EQ(report.repository_counters.stores, 9u * 2u);
  EXPECT_EQ(report.sync_stats.failed_syncs, 0u);
  EXPECT_GT(report.sync_stats.bytes_shipped, 0u);
  EXPECT_GT(report.bytes_on_wire, 0u);
}

TEST_F(FleetTest, ShardedFleetElectsSameBestAsSingleRepository) {
  const Dataset data = tabular_dataset();
  const TEGraph graph = tabular_graph();

  darr::FleetOptions single;
  single.n_clients = 4;
  single.telemetry = false;
  const auto baseline = darr::run_cooperative_search(
      graph, data, KFold(3), Metric::kRmse, single);

  obs::reset_all();
  darr::FleetOptions sharded;
  sharded.n_clients = 8;
  sharded.n_shards = 4;
  sharded.replication = 2;
  sharded.telemetry = false;
  const auto fleet = darr::run_cooperative_search(
      graph, data, KFold(3), Metric::kRmse, sharded);

  ASSERT_FALSE(baseline.clients.empty());
  ASSERT_FALSE(fleet.clients.empty());
  const auto& expected = baseline.clients[0].report.best();
  for (const auto& client : fleet.clients) {
    EXPECT_EQ(client.report.best().spec, expected.spec) << client.name;
    EXPECT_DOUBLE_EQ(client.report.best().mean_score, expected.mean_score)
        << client.name;
  }
  EXPECT_EQ(fleet.redundant_evaluations, 0u);
}

TEST_F(FleetTest, SerialFleetIsByteDeterministic) {
  const Dataset data = tabular_dataset();
  const TEGraph graph = tabular_graph();

  darr::FleetOptions options;
  options.n_clients = 64;
  options.n_shards = 4;
  options.replication = 2;
  options.max_parallel_clients = 1;  // serial: the exact-bench-entry mode
  options.telemetry = false;

  const auto first = darr::run_cooperative_search(graph, data, KFold(3),
                                                  Metric::kRmse, options);
  obs::reset_all();
  const auto second = darr::run_cooperative_search(graph, data, KFold(3),
                                                   Metric::kRmse, options);

  EXPECT_EQ(first.bytes_on_wire, second.bytes_on_wire);
  EXPECT_EQ(first.redundancy_avoided, second.redundancy_avoided);
  EXPECT_EQ(first.sync_stats.bytes_shipped, second.sync_stats.bytes_shipped);
  EXPECT_EQ(first.redundancy_avoided, 64u * 9u - 9u);
}

// Registered names of the process-wide registry: {counters, gauges,
// histograms}.
std::array<std::size_t, 3> registered_name_counts() {
  const auto& registry = obs::MetricsRegistry::instance();
  return {registry.counter_values().size(), registry.gauge_values().size(),
          registry.histogram_views().size()};
}

TEST_F(FleetTest, RepeatedFleetRunsRegisterNoNewNames) {
  // Back-to-back runs in one process with no obs::reset_all() between
  // them (a long-lived process): the second run must not grow the
  // registry, and the per-instance views must read this run's repository
  // and clients only.
  const Dataset data = tabular_dataset();
  const TEGraph graph = tabular_graph();

  darr::FleetOptions options;
  options.n_clients = 16;
  options.n_shards = 4;
  options.replication = 2;
  options.max_parallel_clients = 1;  // serial: identical counts per run
  options.telemetry = false;

  const auto first = darr::run_cooperative_search(graph, data, KFold(3),
                                                  Metric::kRmse, options);
  const auto names_after_first = registered_name_counts();
  const auto second = darr::run_cooperative_search(graph, data, KFold(3),
                                                   Metric::kRmse, options);

  EXPECT_EQ(registered_name_counts(), names_after_first);
  EXPECT_EQ(second.repository_counters, first.repository_counters);
  ASSERT_EQ(second.clients.size(), first.clients.size());
  for (std::size_t i = 0; i < first.clients.size(); ++i) {
    EXPECT_EQ(second.clients[i].darr_stats, first.clients[i].darr_stats)
        << first.clients[i].name;
  }
  EXPECT_EQ(second.bytes_on_wire, first.bytes_on_wire);
}

TEST_F(FleetTest, ZeroShardsIsRejected) {
  // The repository is always a cluster; a single repository is one shard.
  darr::FleetOptions options;
  options.n_shards = 0;
  EXPECT_THROW(darr::run_cooperative_search(tabular_graph(),
                                            tabular_dataset(), KFold(3),
                                            Metric::kRmse, options),
               InvalidArgument);
}

TEST_F(FleetTest, FleetTelemetryAggregatesAcrossShardsAndClients) {
  const Dataset data = tabular_dataset();
  const TEGraph graph = tabular_graph();

  darr::FleetOptions options;
  options.n_clients = 8;
  options.n_shards = 4;
  options.replication = 2;
  const auto report = darr::run_cooperative_search(graph, data, KFold(3),
                                                   Metric::kRmse, options);

  ASSERT_NE(report.telemetry, nullptr);
  // Fault-free fabric: the fleet-wide aggregate the collector assembled
  // from per-node reports reproduces the process-wide registry exactly.
  EXPECT_EQ(report.telemetry_divergence, "")
      << report.telemetry_divergence;
}

}  // namespace
}  // namespace coda
