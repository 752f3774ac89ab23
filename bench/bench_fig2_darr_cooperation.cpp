// Regenerates Fig 2: clients sharing analytics results through the DARR.
// The artifact sweeps the client count over one fixed Transformer-
// Estimator Graph search and reports per-client local work, cache reads,
// redundant evaluations, repository traffic and wall-clock speedup —
// the paper's claim that cooperation avoids redundant calculations.
// A claim-TTL ablation (DESIGN.md choice 3) shows duplicated work when a
// client "crashes" mid-claim.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"

using namespace coda;

namespace {

Dataset workload() {
  RegressionConfig cfg;
  cfg.n_samples = 300;
  cfg.n_features = 8;
  return make_regression(cfg);
}

TEGraph search_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<MinMaxScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<RandomForestRegressor>());
  models.push_back(std::make_unique<KnnRegressor>());
  g.add_regression_models(std::move(models));
  return g;  // 16 candidates
}

void print_fig2() {
  std::printf("=== Fig 2 (regenerated): cooperative analytics through the "
              "DARR ===\n\n");
  const Dataset data = workload();
  const TEGraph graph = search_graph();

  std::vector<std::vector<std::string>> rows;
  double solo_seconds = 0.0;
  darr::CooperativeReport last_report;
  for (const std::size_t n_clients : {1u, 2u, 4u, 8u}) {
    // Fresh metrics per sweep point: the per-node table below then reads
    // exactly one run, and the fleet-vs-global check covers it alone.
    obs::reset_all();
    auto report = darr::run_cooperative_search(
        graph, data, KFold(5), Metric::kRmse, n_clients);
    if (n_clients == 1) solo_seconds = report.wall_seconds;
    std::size_t max_local = 0;
    for (const auto& c : report.clients) {
      max_local = std::max(max_local, c.evaluated_locally);
    }
    rows.push_back(
        {coda::bench::fmt_int(n_clients),
         coda::bench::fmt_int(report.total_candidates),
         coda::bench::fmt_int(report.total_local_evaluations),
         coda::bench::fmt_int(report.redundant_evaluations),
         coda::bench::fmt_int(max_local),
         coda::bench::fmt_int(report.repository_counters.claims_denied),
         coda::bench::fmt(report.wall_seconds, 2),
         coda::bench::fmt(solo_seconds / report.wall_seconds, 2)});
    last_report = std::move(report);
  }
  coda::bench::print_table({"clients", "candidates", "total local evals",
                            "redundant", "max/client", "claims denied",
                            "wall s", "speedup"},
                           rows, {7, 10, 17, 9, 10, 13, 8, 8});
  std::printf("\n(redundant evaluations stay at 0 while per-client work "
              "shrinks: the DARR partitions the search; wall-clock speedup "
              "is bounded by the host's single core here — on real fleets "
              "each client is its own machine)\n\n");

  // Per-node fleet telemetry for the widest sweep (DESIGN.md §12): each
  // client shipped its MetricScope shard to the run's collector node over
  // SimNet; the table below reads the collector, not the clients.
  const auto& fleet = *last_report.telemetry;
  std::printf("=== per-node telemetry, %zu-client run (from the collector "
              "node) ===\n\n",
              last_report.clients.size());
  std::vector<std::vector<std::string>> node_rows;
  for (const auto& c : last_report.clients) {
    const obs::MetricsSnapshot snap = fleet.node_snapshot(c.name);
    const auto counter = [&snap](const char* name) -> std::uint64_t {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    double claim_wait_p99 = 0.0;
    if (auto it = snap.histograms.find("eval.claim.wait_seconds");
        it != snap.histograms.end() && it->second.count > 0) {
      claim_wait_p99 = it->second.quantile(0.99);
    }
    node_rows.push_back(
        {c.name, coda::bench::fmt_int(counter("eval.candidate.local")),
         coda::bench::fmt_int(counter("eval.candidate.cached")),
         coda::bench::fmt_int(counter("darr.client.lookups")),
         coda::bench::fmt_int(counter("darr.client.hits")),
         coda::bench::fmt(claim_wait_p99, 4)});
  }
  coda::bench::print_table({"node", "local evals", "redundancy avoided",
                            "darr lookups", "darr hits", "claim-wait p99 s"},
                           node_rows, {-9, 11, 18, 12, 9, 16});
  std::printf("\n(\"redundancy avoided\" = candidates served from a peer's "
              "stored result instead of recomputed; claim-wait p99 is the "
              "price of waiting on a peer's in-flight computation)\n\n");

  // Fleet-vs-global invariant: on this fault-free run the collector's
  // aggregate must reproduce the process-wide registry exactly.
  if (last_report.telemetry_divergence.empty()) {
    std::printf("collector fleet aggregate == global registry (bit-for-bit "
                "on every fleet-shipped family)\n\n");
  } else {
    std::printf("WARNING: collector fleet aggregate diverged from the "
                "global registry:\n%s\n\n",
                last_report.telemetry_divergence.c_str());
  }

  // Declarative SLOs over the collected run (read back via --metrics-json
  // and the coda-telemetry dashboard).
  auto& slos = obs::global_slos();
  slos.add("darr.repo.store count >= 16");
  slos.add("darr.client.hits value >= 1");
  slos.add("eval.claim.wait_seconds p99 < 30");
  slos.bind_fleet(&fleet);
  for (const auto& r : slos.evaluate()) {
    std::printf("slo: %-44s %s (observed %s)\n", r.spec.text.c_str(),
                !r.evaluable ? " n/a" : (r.pass ? "PASS" : "FAIL"),
                coda::bench::fmt(r.observed, 4).c_str());
  }
  // The collector dies with this scope; results() stay readable for the
  // --metrics-json export.
  slos.bind_fleet(nullptr);
  std::printf("\n");

  coda::bench::record_entry("fig2_candidates", 0.0,
                            static_cast<double>(last_report.total_candidates),
                            "candidates", /*exact=*/true);
  coda::bench::record_entry(
      "fig2_cooperative_8c", rows.empty() ? 0.0 : last_report.wall_seconds,
      0.0, "");

  // Claim-TTL ablation: a client that claims and never stores. Another
  // client must steal the claim after the TTL rather than deadlock.
  dist::SimNet net;
  darr::DarrCluster repo(
      &net, {.n_shards = 1, .replication = 1, .claim_ttl_ms = 30});
  darr::DarrClient dead(&repo, net.add_node("dead"));
  darr::DarrClient live(&repo, net.add_node("live"));
  dead.claim("candidate_x");  // crashes here, never stores
  std::size_t retries = 0;
  while (!live.claim("candidate_x")) {
    ++retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::printf("claim-TTL ablation: live client acquired the dead client's "
              "claim after %zu retries (%zu expired claims recorded) — "
              "crash recovery costs one duplicated evaluation, never a "
              "deadlock\n\n",
              retries, repo.counters().claims_expired);
  coda::bench::record_entry(
      "fig2_claims_expired", 0.0,
      static_cast<double>(repo.counters().claims_expired), "claims",
      /*exact=*/true);
}

void BM_DarrLookupStore(benchmark::State& state) {
  dist::SimNet net;
  darr::DarrCluster repo(&net, {.n_shards = 1, .replication = 1});
  darr::DarrClient client(&repo, net.add_node("c"));
  CachedResult result;
  result.fold_scores = {0.1, 0.2, 0.3, 0.4, 0.5};
  result.explanation = "standardscaler -> randomforest";
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 64);
    client.put(key, result);
    benchmark::DoNotOptimize(client.fetch(key));
  }
}
BENCHMARK(BM_DarrLookupStore);

void BM_DarrClaim(benchmark::State& state) {
  dist::SimNet net;
  darr::DarrCluster repo(&net, {.n_shards = 1, .replication = 1});
  darr::DarrClient client(&repo, net.add_node("c"));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.claim("k" + std::to_string(i++)));
  }
}
BENCHMARK(BM_DarrClaim);

}  // namespace

int main(int argc, char** argv) {
  coda::bench::strip_obs_flags(&argc, argv);
  // Start from zeroed metrics so the fleet-vs-global check and the
  // exported baseline see only this run's writes.
  obs::reset_all();
  print_fig2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  coda::bench::dump_obs_if_requested();
  return 0;
}
