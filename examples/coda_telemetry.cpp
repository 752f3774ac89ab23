// Fleet telemetry dashboard (DESIGN.md §12): runs a cooperative graph
// search, then renders what the run's telemetry collector gathered — the
// per-node metric shards every client shipped over SimNet as snapshot
// deltas — as the `coda_telemetry` text view: fleet aggregates, tracked
// series with rates and top-k nodes, the fleet hot-path table, and the
// declarative SLO verdicts, followed by the process-local `coda_top`
// profiler view (hottest regions by call count).
//
// Set CODA_METRICS_DUMP=1 to also emit the JSON snapshot (the same data
// the --metrics-json bench flag exports); CODA_PROFILE_DUMP=1 emits the
// folded-stack profile.
#include <cstdio>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"

using namespace coda;

namespace {

TEGraph search_graph() {
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

}  // namespace

int main() {
  std::printf("=== coda telemetry dashboard ===\n\n");
  obs::reset_all();

  RegressionConfig data_cfg;
  data_cfg.n_samples = 250;
  data_cfg.n_features = 6;
  const Dataset data = make_regression(data_cfg);

  std::printf("running a 4-client cooperative search to collect fleet "
              "telemetry...\n\n");
  const auto report = darr::run_cooperative_search(
      search_graph(), data, KFold(4), Metric::kRmse, /*n_clients=*/4);

  // Declarative SLOs, checked against the *collected* telemetry (which
  // rode the simulated network), not the process-wide registry. The
  // executor-health checks (pool.*) fall back to the process-wide
  // registry: pools are process-local, so their metrics never ride a
  // node shard, but the SLO evaluator probes the registry for any metric
  // absent from the fleet aggregate.
  auto& slos = obs::global_slos();
  slos.add("darr.repo.store count >= 9");
  slos.add("darr.client.hits value >= 1");
  slos.add("eval.claim.wait_seconds p99 < 30");
  slos.add("pool.queue_wait_seconds p99 < 1");
  slos.add("pool.utilization value <= 1");
  slos.bind_fleet(report.telemetry.get());

  std::printf("%s\n", obs::telemetry_dashboard(report.telemetry.get()).c_str());

  // coda_top: the process-local profiler view — hottest regions by call
  // count (deterministic for a fixed workload), with self/total time and
  // derived kernel throughput. The fleet-wide counterpart is the
  // "hot paths (fleet)" table in the dashboard above, reconstructed at
  // the collector from published prof.* counters.
  std::printf("%s\n", obs::prof::report().c_str());

  if (report.telemetry_divergence.empty()) {
    std::printf("fleet aggregate == global registry (every shipped family "
                "reconstructed bit-for-bit at the collector)\n");
  } else {
    std::printf("fleet aggregate DIVERGED from the global registry:\n%s\n",
                report.telemetry_divergence.c_str());
  }

  slos.bind_fleet(nullptr);
  coda::obs::dump_if_env();
  return 0;
}
