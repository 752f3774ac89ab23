// Fleet-scale cooperative analytics over the sharded, replicated DARR
// tier (DESIGN.md §13): sweeps client count x shard count and reports
// redundancy-avoided, bytes-on-wire and claim-contention p99 at hundreds-
// to-thousand-client scale, plus the acceptance run — a 512-client
// cooperative Fig-11 forecast search over 4 shards at replication factor
// 2 under a seeded chaos fault model, which must elect the identical best
// pipeline as the single-shard topology with zero redundant
// evaluations.
//
// The sweep and acceptance sections run the fleet serially
// (max_parallel_clients = 1) with telemetry off, which makes every byte
// and counter deterministic: those entries are gated bit-for-bit
// ("exact") by scripts/bench_gate.py. The contention section runs
// genuinely concurrent waves and is gated as a timed entry.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/ts/forecasters.h"

using namespace coda;

namespace {

Dataset tabular_workload() {
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

TimeSeries forecast_series() {
  IndustrialSeriesConfig cfg;
  cfg.n_variables = 2;
  cfg.length = 200;
  return make_industrial_series(cfg);
}

ts::ForecastGraph forecast_graph() {
  ts::ForecastSpec spec;
  spec.history = 8;
  ts::ForecastGraph g(spec);
  g.add_scaler(std::make_unique<StandardScaler>());
  g.add_scaler(std::make_unique<NoOp>());
  g.add_windower(std::make_unique<ts::TsAsIs>(), "stat");
  g.add_windower(std::make_unique<ts::CascadedWindows>(), "temporal");
  g.add_model(std::make_unique<ts::ZeroModel>(), "stat");
  g.add_model(std::make_unique<ts::ArModel>(), "temporal");
  return g;  // 4 candidates
}

// The chaos-grade transfer budget (mirrors tests/chaos_harness.h): deep
// enough that seeded drops never exhaust an operation's retries, so the
// fleet completes and the zero-redundancy invariant stays exact.
RetryPolicy fleet_retry(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_seconds = 0.05;
  policy.multiplier = 2.0;
  policy.max_backoff_seconds = 1.0;
  policy.jitter_fraction = 0.1;
  policy.deadline_seconds = 20.0;
  policy.seed = seed;
  return policy;
}

void print_scale_sweep() {
  std::printf("=== fleet scale sweep: clients x shards (serial, "
              "deterministic) ===\n\n");
  const Dataset data = tabular_workload();
  const TEGraph graph = tabular_graph();

  std::vector<std::vector<std::string>> rows;
  for (const std::size_t n_clients : {64u, 256u}) {
    for (const std::size_t n_shards : {1u, 4u, 8u}) {
      obs::reset_all();
      darr::FleetOptions options;
      options.n_clients = n_clients;
      options.n_shards = n_shards;
      options.replication = n_shards >= 2 ? 2 : 1;
      options.max_parallel_clients = 1;  // serial: bytes are exact
      options.telemetry = false;
      const auto report = darr::run_cooperative_search(
          graph, data, KFold(3), Metric::kRmse, options);

      rows.push_back(
          {coda::bench::fmt_int(n_clients), coda::bench::fmt_int(n_shards),
           coda::bench::fmt_int(report.replication),
           coda::bench::fmt_int(report.redundancy_avoided),
           coda::bench::fmt_int(report.redundant_evaluations),
           coda::bench::fmt_int(report.bytes_on_wire),
           coda::bench::fmt_int(report.sync_stats.bytes_shipped),
           coda::bench::fmt(report.wall_seconds, 2)});

      const std::string tag = "fleet_c" + std::to_string(n_clients) + "_s" +
                              std::to_string(n_shards);
      // Redundancy-avoided and bytes-on-wire are pure functions of the
      // topology on a serial fault-free run: bit-for-bit gated.
      coda::bench::record_entry(
          tag + "_redundancy_avoided", 0.0,
          static_cast<double>(report.redundancy_avoided), "evals",
          /*exact=*/true);
      coda::bench::record_entry(tag + "_bytes_on_wire", 0.0,
                                static_cast<double>(report.bytes_on_wire),
                                "bytes", /*exact=*/true);
    }
  }
  coda::bench::print_table(
      {"clients", "shards", "rf", "redundancy avoided", "redundant",
       "bytes on wire", "sync bytes", "wall s"},
      rows, {7, 6, 4, 18, 9, 13, 10, 8});
  std::printf("\n(redundancy avoided grows linearly with the fleet while "
              "redundant evaluations stay 0; bytes-on-wire buys that with "
              "lookups, claims and replica syncs — all accounted by "
              "SimNet)\n\n");
}

void print_acceptance_run() {
  std::printf("=== acceptance: 512-client Fig-11 forecast search, 4 shards, "
              "rf=2, chaos fault model ===\n\n");
  const TimeSeries series = forecast_series();
  const ts::ForecastGraph graph = forecast_graph();
  const TimeSeriesSlidingSplit cv(2, 100, 30, 5);

  // Single-repository reference: the best pipeline the seed topology
  // elects on a fault-free run.
  obs::reset_all();
  darr::FleetOptions single;
  single.n_clients = 2;
  single.max_parallel_clients = 1;
  single.telemetry = false;
  const auto reference = darr::run_cooperative_forecast_search(
      graph, series, cv, Metric::kRmse, single);
  const std::string expected_best =
      reference.clients[0].report.best().spec;

  obs::reset_all();
  darr::FleetOptions options;
  options.n_clients = 512;
  options.n_shards = 4;
  options.replication = 2;
  options.max_parallel_clients = 1;
  options.telemetry = false;
  options.retry = fleet_retry(0xF1EE7);
  dist::SimNet::FaultConfig faults;
  faults.seed = 2024;
  faults.drop_probability = 0.05;
  faults.latency_spike_probability = 0.05;
  options.faults = faults;
  const auto report = darr::run_cooperative_forecast_search(
      graph, series, cv, Metric::kRmse, options);

  std::size_t best_matches = 0;
  for (const auto& client : report.clients) {
    if (client.report.best().spec == expected_best) ++best_matches;
  }
  std::printf("clients: %zu  shards: %zu  rf: %zu\n",
              report.clients.size(), report.n_shards, report.replication);
  std::printf("best pipeline: %s\n", expected_best.c_str());
  std::printf("clients electing it: %zu / %zu\n", best_matches,
              report.clients.size());
  std::printf("redundant evaluations: %zu  redundancy avoided: %zu\n",
              report.redundant_evaluations, report.redundancy_avoided);
  std::printf("bytes on wire: %zu  replica syncs: %zu (failed: %zu)\n",
              report.bytes_on_wire, report.sync_stats.replica_syncs,
              report.sync_stats.failed_syncs);
  std::printf("wall: %.2fs\n\n", report.wall_seconds);

  // The acceptance invariants, gated bit-for-bit: every client elected
  // the reference best pipeline, and the fleet computed each candidate
  // exactly once (zero redundant evaluations) despite the fault model.
  coda::bench::record_entry(
      "fleet512_best_pipeline_matches", 0.0,
      static_cast<double>(best_matches == report.clients.size() ? 1 : 0),
      "bool", /*exact=*/true);
  coda::bench::record_entry(
      "fleet512_redundant_evals", 0.0,
      static_cast<double>(report.redundant_evaluations), "evals",
      /*exact=*/true);
  coda::bench::record_entry(
      "fleet512_redundancy_avoided", 0.0,
      static_cast<double>(report.redundancy_avoided), "evals",
      /*exact=*/true);
  coda::bench::record_entry("fleet512_bytes_on_wire", 0.0,
                            static_cast<double>(report.bytes_on_wire),
                            "bytes", /*exact=*/true);
  // Wall-clock of the 512-session run: timed, with a generous band (the
  // serial fleet is CPU-bound but shares the host with the suite).
  coda::bench::record_entry("fleet512_wall", report.wall_seconds, 0.0, "",
                            /*exact=*/false, /*tolerance=*/10.0);
}

void print_contention_run() {
  std::printf("=== claim contention: 256 concurrent clients, 16-wide "
              "waves, 4 shards ===\n\n");
  const Dataset data = tabular_workload();
  const TEGraph graph = tabular_graph();

  obs::reset_all();
  darr::FleetOptions options;
  options.n_clients = 256;
  options.n_shards = 4;
  options.replication = 2;
  options.max_parallel_clients = 16;
  options.telemetry = false;
  const auto report = darr::run_cooperative_search(
      graph, data, KFold(3), Metric::kRmse, options);

  std::printf("redundant evaluations: %zu  redundancy avoided: %zu\n",
              report.redundant_evaluations, report.redundancy_avoided);
  std::printf("claims denied: %zu  claim-wait p99: %.4fs\n",
              report.repository_counters.claims_denied,
              report.claim_wait_p99_seconds);
  std::printf("wall: %.2fs\n\n", report.wall_seconds);

  // Contention price, gated as timed entries with wide bands: wall-clock
  // waits depend on host scheduling, and only order-of-magnitude
  // regressions (e.g. claim-wait turning into TTL-scale stalls) should
  // trip the gate.
  coda::bench::record_entry("fleet_contention_redundant", 0.0,
                            static_cast<double>(report.redundant_evaluations),
                            "evals", /*exact=*/true);
  coda::bench::record_entry("fleet_contention_claim_wait_p99",
                            report.claim_wait_p99_seconds, 0.0, "",
                            /*exact=*/false, /*tolerance=*/50.0);
  coda::bench::record_entry("fleet_contention_wall", report.wall_seconds,
                            0.0, "", /*exact=*/false, /*tolerance=*/10.0);
}

void BM_ShardedClaimPutFetch(benchmark::State& state) {
  dist::SimNet net;
  darr::DarrCluster::Config config;
  config.n_shards = 4;
  config.replication = 2;
  darr::DarrCluster cluster(&net, config);
  const auto self = net.add_node("c");
  darr::DarrClient client(&cluster, self);
  CachedResult result;
  result.fold_scores = {0.1, 0.2, 0.3};
  result.explanation = "standardscaler -> linearregression";
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++);
    benchmark::DoNotOptimize(client.claim(key));
    client.put(key, result);
    benchmark::DoNotOptimize(client.fetch(key));
  }
}
BENCHMARK(BM_ShardedClaimPutFetch);

}  // namespace

int main(int argc, char** argv) {
  coda::bench::strip_obs_flags(&argc, argv);
  obs::reset_all();
  print_scale_sweep();
  print_acceptance_run();
  print_contention_run();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  coda::bench::dump_obs_if_requested();
  return 0;
}
