// Deterministic chaos suite (ctest label `chaos`): cooperative Fig-3 and
// Fig-11 graph searches driven through seeded fault schedules. Each test
// wraps its assertions in SCOPED_TRACE(schedule.describe()), so a failure
// under `ctest -L chaos` prints the exact fault schedule to replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/kernels.h"
#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/dist/client_cache.h"
#include "src/dist/home_store.h"
#include "src/dist/remote_service.h"
#include "src/dist/replication.h"
#include "src/dist/retry.h"
#include "src/dist/telemetry.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/templates/anomaly.h"
#include "src/templates/cohort.h"
#include "src/templates/failure_prediction.h"
#include "src/templates/root_cause.h"
#include "src/ts/forecasters.h"
#include "src/util/thread_pool.h"
#include "src/util/timer_wheel.h"
#include "tests/chaos_harness.h"

namespace coda {
namespace {

using chaos::ChaosRun;
using chaos::ChaosSchedule;

// Dumps the fault schedule plus the flight-recorder tail (every injected
// fault, retry give-up, degradation and lease expiry leading up to the
// failure) when the enclosing test fails, so a chaos failure can be
// reconstructed from the log without re-running the schedule.
class FlightRecorderOnFailure {
 public:
  explicit FlightRecorderOnFailure(ChaosSchedule schedule)
      : schedule_(std::move(schedule)) {}
  ~FlightRecorderOnFailure() {
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr, "%s",
                   chaos::flight_recorder_report(schedule_).c_str());
    }
  }

 private:
  ChaosSchedule schedule_;
};

// ---------------------------------------------------------------------------
// Fig-3 workload: the 9-candidate tabular graph from the cooperative tests.

Dataset tabular_dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 150;
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

ChaosRun run_tabular(const Dataset& data, std::size_t n_clients,
                     const ChaosSchedule& schedule) {
  return chaos::run_chaos_search(tabular_graph(), data, KFold(3),
                                 Metric::kRmse, n_clients, schedule);
}

// ---------------------------------------------------------------------------
// Fig-11 workload: a small forecast graph over the cheap statistical
// models (2 scalers x {TS-as-is -> Zero, CascadedWindows -> AR} = 4 paths).

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

ChaosRun run_forecast(const TimeSeries& series, std::size_t n_clients,
                      const ChaosSchedule& schedule) {
  return chaos::run_chaos_forecast_search(
      forecast_graph(), series, TimeSeriesSlidingSplit(2, 100, 30, 5),
      Metric::kRmse, n_clients, schedule);
}

// Per-candidate scores keyed by spec, for comparing a chaos run against
// the fault-free baseline (candidate completion order varies per client).
std::map<std::string, double> scores_by_spec(const EvaluationReport& r) {
  std::map<std::string, double> out;
  for (const auto& c : r.results) out[c.spec] = c.mean_score;
  return out;
}

// Invariant (a): the run completed everywhere and agrees bit-for-bit with
// the fault-free baseline — same candidates, same scores, same winner.
void expect_matches_baseline(const ChaosRun& run,
                             const EvaluationReport& baseline) {
  const auto expected = scores_by_spec(baseline);
  for (const auto& report : run.reports) {
    ASSERT_EQ(report.results.size(), baseline.results.size());
    for (const auto& c : report.results) {
      EXPECT_FALSE(c.failed) << c.spec << ": " << c.failure_message;
      const auto it = expected.find(c.spec);
      ASSERT_NE(it, expected.end()) << "unknown candidate " << c.spec;
      EXPECT_DOUBLE_EQ(c.mean_score, it->second) << c.spec;
    }
    EXPECT_EQ(report.best().spec, baseline.best().spec);
    EXPECT_DOUBLE_EQ(report.best().mean_score, baseline.best().mean_score);
  }
}

// Invariant (b) for transient schedules: claims still partition the
// candidate space exactly — no client recomputed another's work.
void expect_zero_redundancy(const ChaosRun& run) {
  EXPECT_EQ(run.total_local_evaluations, run.total_candidates);
  EXPECT_EQ(run.redundant_evaluations, 0u);
  EXPECT_EQ(run.repository_counters.stores, run.total_candidates);
  EXPECT_EQ(run.repository_counters.claims_expired, 0u);
  for (const auto& report : run.reports) {
    EXPECT_EQ(report.evaluated_locally + report.served_from_cache,
              run.total_candidates);
  }
}

// The seeded schedules of the acceptance sweep: heavy drops, spikes, a
// transient repo partition, and a transient client crash — each within
// what the chaos retry budget (~8.5s of logical backoff) can absorb.
std::vector<ChaosSchedule> transient_schedules() {
  std::vector<ChaosSchedule> schedules;
  for (std::uint64_t seed : {101, 202, 303}) {
    ChaosSchedule s;
    s.seed = seed;
    s.drop_probability = 0.3;
    s.latency_spike_probability = 0.2;
    schedules.push_back(s);
  }
  {
    ChaosSchedule s;
    s.seed = 404;
    s.drop_probability = 0.1;
    s.partitioned_client = 1;
    s.partition_start = 0.0;
    s.partition_end = 1.0;
    schedules.push_back(s);
  }
  {
    ChaosSchedule s;
    s.seed = 505;
    s.drop_probability = 0.1;
    s.crashed_client = 2;
    s.crash_start = 0.0;
    s.crash_end = 1.2;
    schedules.push_back(s);
  }
  return schedules;
}

TEST(Chaos, Fig3SearchSurvivesSeededSchedules) {
  const Dataset data = tabular_dataset();
  const ChaosRun baseline = run_tabular(data, 3, ChaosSchedule{});
  ASSERT_EQ(baseline.fault_stats.dropped, 0u);
  expect_zero_redundancy(baseline);

  for (const auto& schedule : transient_schedules()) {
    SCOPED_TRACE(schedule.describe());
    const FlightRecorderOnFailure flight(schedule);
    const ChaosRun run = run_tabular(data, 3, schedule);
    if (schedule.drop_probability > 0.0) {
      EXPECT_GT(run.fault_stats.dropped, 0u);  // faults actually fired
    }
    expect_matches_baseline(run, baseline.reports[0]);
    expect_zero_redundancy(run);
  }
}

TEST(Chaos, Fig11ForecastSearchSurvivesSeededSchedules) {
  const TimeSeries series = forecast_series();
  const ChaosRun baseline = run_forecast(series, 3, ChaosSchedule{});
  ASSERT_EQ(baseline.total_candidates, 4u);
  expect_zero_redundancy(baseline);

  for (const auto& schedule : transient_schedules()) {
    SCOPED_TRACE(schedule.describe());
    const FlightRecorderOnFailure flight(schedule);
    const ChaosRun run = run_forecast(series, 3, schedule);
    expect_matches_baseline(run, baseline.reports[0]);
    expect_zero_redundancy(run);
  }
}

// ---------------------------------------------------------------------------
// Sharded repository tier (DESIGN.md §13): shard crashes and lease
// migration under the chaos fault model.

// Invariant (b) shaped for a sharded tier: claims still partition the
// candidate space, but stores land once per *owner* (replication), so the
// single-shard stores == candidates identity does not apply.
void expect_zero_redundancy_sharded(const ChaosRun& run) {
  EXPECT_EQ(run.total_local_evaluations, run.total_candidates);
  EXPECT_EQ(run.redundant_evaluations, 0u);
  for (const auto& report : run.reports) {
    EXPECT_EQ(report.evaluated_locally + report.served_from_cache,
              run.total_candidates);
  }
}

TEST(Chaos, ShardCrashMidClaimMigratesLeaseToReplica) {
  // Two shards at replication factor 2: every key is owned by both, so
  // the surviving shard serves every key after the crash and every
  // replica sync toward the dead one fails (counted, never hung).
  ChaosSchedule schedule;
  schedule.n_shards = 2;
  schedule.replication = 2;
  SCOPED_TRACE(schedule.describe());
  const FlightRecorderOnFailure flight(schedule);
  chaos::ChaosFabric fabric(2, schedule);
  auto& holder = *fabric.clients[0];
  auto& peer = *fabric.clients[1];

  // The claim lands on the serving owner and replicates to the other.
  ASSERT_TRUE(holder.claim("k"));
  ASSERT_EQ(fabric.cluster.sync_stats().failed_syncs, 0u);

  // Crash the serving owner mid-claim: ownership migrates — the replica
  // already holds the lease and defends it in place.
  const auto owners = fabric.cluster.owners("k");
  fabric.net.crash_node(fabric.cluster.node(owners[0]), fabric.net.now(),
                        1e9);
  EXPECT_FALSE(peer.claim("k"));

  // The holder finishes its computation against the surviving owner...
  CachedResult result;
  result.mean_score = 0.5;
  result.explanation = "spec";
  holder.put("k", result);
  EXPECT_TRUE(holder.held_claims().empty());
  // ...and the peer reads the result from the replica that took over.
  const auto hit = peer.fetch("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->mean_score, 0.5);
  // The record sync toward the crashed owner was counted as failed.
  EXPECT_GE(fabric.cluster.sync_stats().failed_syncs, 1u);
}

TEST(Chaos, ShardedFig11SearchSurvivesAShardCrash) {
  const TimeSeries series = forecast_series();
  const ChaosRun baseline = run_forecast(series, 3, ChaosSchedule{});

  // Fault-free sharded run first: same best pipeline as the single-shard
  // topology, zero redundancy, every record on both owners.
  {
    ChaosSchedule schedule;
    schedule.seed = 606;
    schedule.n_shards = 2;
    schedule.replication = 2;
    SCOPED_TRACE(schedule.describe());
    const FlightRecorderOnFailure flight(schedule);
    const ChaosRun run = run_forecast(series, 3, schedule);
    expect_matches_baseline(run, baseline.reports[0]);
    expect_zero_redundancy_sharded(run);
    EXPECT_EQ(run.sync_stats.failed_syncs, 0u);
    EXPECT_EQ(run.repository_counters.stores, 2 * run.total_candidates);
  }

  // Now crash shard 0 for the whole run: the surviving shard serves the
  // entire keyspace, the best pipeline is unchanged, cooperation stays
  // exact, and the lost replica syncs are accounted.
  {
    ChaosSchedule schedule;
    schedule.seed = 707;
    schedule.drop_probability = 0.1;
    schedule.n_shards = 2;
    schedule.replication = 2;
    schedule.crashed_shard = 0;
    schedule.shard_crash_start = 0.0;
    schedule.shard_crash_end = 1e9;
    SCOPED_TRACE(schedule.describe());
    const FlightRecorderOnFailure flight(schedule);
    const ChaosRun run = run_forecast(series, 3, schedule);
    expect_matches_baseline(run, baseline.reports[0]);
    expect_zero_redundancy_sharded(run);
    EXPECT_GT(run.sync_stats.failed_syncs, 0u);
    // Every store landed exactly once — on the surviving owner.
    EXPECT_EQ(run.repository_counters.stores, run.total_candidates);
  }
}

TEST(Chaos, ShardedGoldenMetricKeysStayPinned) {
  // A sharded run must keep exporting the pinned fault-metric names that
  // tests/golden/metrics_keys.txt contracts (the golden-file test below
  // checks membership; this one proves the sharded path exercises them).
  ChaosSchedule schedule;
  schedule.n_shards = 2;
  schedule.replication = 2;
  schedule.crashed_shard = 1;
  schedule.shard_crash_start = 0.0;
  schedule.shard_crash_end = 1e9;
  SCOPED_TRACE(schedule.describe());
  chaos::ChaosFabric fabric(1, schedule);
  ASSERT_TRUE(fabric.clients[0]->claim("pinned"));
  fabric.clients[0]->abandon_all();  // -> darr.client.claims_abandoned

  std::set<std::string> registered;
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counter_values()) {
    (void)value;
    registered.insert(name);
  }
  EXPECT_TRUE(registered.count("replication.failed_syncs"));
  EXPECT_TRUE(registered.count("darr.client.claims_abandoned"));
}

TEST(Chaos, AbandonAllCountsEachFreedClaimExactlyOnce) {
  // Exactly-once accounting for darr.client.claims_abandoned: a release
  // whose response leg dies past the retry budget has still freed the
  // claim store-side (wire.applied) and must count once; a release that
  // only succeeds on a later abandon_all pass must not count again. The
  // invariant ties the counter to ground truth: freed = held before -
  // held after.
  const auto& abandoned = obs::counter("darr.client.claims_abandoned");
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    ChaosSchedule schedule;
    schedule.seed = 1300 + seed;
    schedule.drop_probability = 0.8;
    SCOPED_TRACE(schedule.describe());
    chaos::ChaosFabric fabric(1, schedule);
    auto& client = *fabric.clients[0];
    for (int k = 0; k < 6; ++k) {
      try {
        client.claim("exactly_once_" + std::to_string(seed) + "_" +
                     std::to_string(k));
      } catch (const NetworkError&) {
        // Lost claim responses are tracked via wire.applied; either way
        // held_claims() below is the ground truth.
      }
    }
    const std::size_t held_before = client.held_claims().size();
    const std::uint64_t count_before = abandoned.value();
    client.abandon_all();
    const std::size_t held_after = client.held_claims().size();
    EXPECT_EQ(abandoned.value() - count_before, held_before - held_after);
  }
}

TEST(Chaos, SameScheduleReplaysIdenticalFaultDecisions) {
  // The per-link fault stream is a pure function of (seed, link, message
  // index): replaying one client's message sequence against two fabrics
  // built from the same schedule yields identical outcomes.
  ChaosSchedule schedule;
  schedule.seed = 909;
  schedule.drop_probability = 0.3;
  SCOPED_TRACE(schedule.describe());
  auto outcomes = [&](chaos::ChaosFabric& fabric) {
    std::vector<bool> out;
    for (int i = 0; i < 100; ++i) {
      out.push_back(fabric.net
                        .transfer(fabric.client_nodes[0],
                                  fabric.cluster.node(0), 64)
                        .ok());
    }
    return out;
  };
  chaos::ChaosFabric first(2, schedule);
  chaos::ChaosFabric second(2, schedule);
  EXPECT_EQ(outcomes(first), outcomes(second));
}

TEST(Chaos, PermanentPartitionDegradesToLocalEvaluation) {
  // Client 0 can never reach the repository: after one give-up it must
  // switch to pure local evaluation (sticky degradation), still finish
  // with correct results, and leave the other clients cooperating.
  ChaosSchedule schedule;
  schedule.seed = 606;
  schedule.partitioned_client = 0;
  schedule.partition_start = 0.0;
  schedule.partition_end = 1e9;  // never heals
  SCOPED_TRACE(schedule.describe());
  const FlightRecorderOnFailure flight(schedule);

  const auto degraded_before = obs::counter("eval.darr_degraded").value();
  const auto gave_up_before = obs::counter("retry.gave_up").value();

  const Dataset data = tabular_dataset();
  const ChaosRun baseline = run_tabular(data, 1, ChaosSchedule{});
  const ChaosRun run = run_tabular(data, 3, schedule);

  EXPECT_GT(obs::counter("retry.gave_up").value(), gave_up_before);
  EXPECT_GT(obs::counter("eval.darr_degraded").value(), degraded_before);

  // Everyone still produced the full, correct report.
  expect_matches_baseline(run, baseline.reports[0]);

  // The degraded client computed everything itself; the connected pair
  // split the space cooperatively. Work is duplicated exactly once.
  EXPECT_EQ(run.reports[0].evaluated_locally, run.total_candidates);
  EXPECT_EQ(run.reports[0].served_from_cache, 0u);
  EXPECT_EQ(run.redundant_evaluations, run.total_candidates);
  EXPECT_EQ(run.repository_counters.stores, run.total_candidates);
  EXPECT_GT(run.fault_stats.partitioned, 0u);
}

TEST(Chaos, FlightRecorderReportCapturesScheduleAndDegradation) {
  // The failure report a chaos test prints must be reconstructable: the
  // replayable schedule line followed by the recorded fault, give-up and
  // degradation events, attributed to the node that hit them.
  obs::EventLog::instance().clear();
  ChaosSchedule schedule;
  schedule.seed = 808;
  schedule.partitioned_client = 0;
  schedule.partition_start = 0.0;
  schedule.partition_end = 1e9;  // never heals: client0 must degrade
  run_tabular(tabular_dataset(), 2, schedule);

  const std::string report = chaos::flight_recorder_report(schedule, 256);
  EXPECT_NE(report.find("fault schedule: ChaosSchedule{seed=808"),
            std::string::npos);
  EXPECT_NE(report.find("flight recorder:"), std::string::npos);
  EXPECT_NE(report.find("net.fault.partitioned"), std::string::npos);
  EXPECT_NE(report.find("retry.gave_up"), std::string::npos);
  EXPECT_NE(report.find("eval.darr_degraded"), std::string::npos);
  EXPECT_NE(report.find("node=client0"), std::string::npos);
}

TEST(Chaos, CrashedClientsClaimsAreReclaimableByPeers) {
  chaos::ChaosFabric fabric(2, ChaosSchedule{});
  auto& crashed = *fabric.clients[0];
  auto& peer = *fabric.clients[1];

  ASSERT_TRUE(crashed.claim("fig3/candidate"));
  ASSERT_EQ(crashed.held_claims(),
            std::vector<std::string>{"fig3/candidate"});
  // While the claim is live, the peer is told to work on something else.
  EXPECT_FALSE(peer.claim("fig3/candidate"));

  // Crash-restart: the restarted client releases every orphaned claim
  // instead of pinning the candidate until the repository TTL fires.
  crashed.abandon_all();
  EXPECT_TRUE(crashed.held_claims().empty());
  EXPECT_TRUE(peer.claim("fig3/candidate"));
  EXPECT_EQ(fabric.cluster.counters().claims_expired, 0u);
}

TEST(Chaos, AbandonAllSurvivesAnUnreachableRepository) {
  chaos::ChaosFabric fabric(2, ChaosSchedule{});
  auto& client = *fabric.clients[0];
  ASSERT_TRUE(client.claim("k"));

  // Node down forever: the release RPC exhausts its budget. The claim
  // must stay tracked so a later abandon_all() (post-restart) retries it.
  fabric.net.crash_node(fabric.client_nodes[0], fabric.net.now(), 1e9);
  client.abandon_all();
  EXPECT_EQ(client.held_claims(), std::vector<std::string>{"k"});

  fabric.net.restart_node(fabric.client_nodes[0]);
  client.abandon_all();
  EXPECT_TRUE(client.held_claims().empty());
  EXPECT_TRUE(fabric.clients[1]->claim("k"));
}

TEST(Chaos, RemoteServiceStatsAreRaceFree) {
  // Satellite: concurrent fit/predict through RemoteEstimators must not
  // race on the service's call accounting (run under the tsan label).
  dist::SimNet net;
  const dist::NodeId svc_node = net.add_node("svc");
  dist::RemoteModelService service(&net, svc_node,
                                   std::make_unique<LinearRegression>());
  RegressionConfig cfg;
  cfg.n_samples = 60;
  cfg.n_features = 3;
  cfg.n_informative = 3;
  const Dataset data = make_regression(cfg);

  constexpr int kCallers = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      const dist::NodeId me =
          net.add_node("caller" + std::to_string(i));
      dist::RemoteEstimator estimator(&service, me);
      estimator.fit(data.X, data.y);
      const auto predictions = estimator.predict(data.X);
      EXPECT_EQ(predictions.size(), data.X.rows());
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.fit_calls, static_cast<std::size_t>(kCallers));
  EXPECT_EQ(stats.predict_calls, static_cast<std::size_t>(kCallers));
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

// SLO checks evaluate on a chaos run (DESIGN.md §12): after a lossy
// cooperative search, declarative thresholds over the fault/retry and
// evaluator families are checkable against the registry the run wrote.
TEST(Chaos, SloChecksEvaluateOnAChaosRun) {
  obs::reset_all();
  const Dataset data = tabular_dataset();
  ChaosSchedule schedule;
  schedule.seed = 21;
  schedule.drop_probability = 0.3;
  SCOPED_TRACE(schedule.describe());
  const FlightRecorderOnFailure recorder(schedule);
  const ChaosRun run = run_tabular(data, 2, schedule);
  EXPECT_GT(run.fault_stats.dropped, 0u);

  auto& slos = obs::global_slos();
  slos.add("net.fault.dropped value >= 1");     // faults were injected
  slos.add("retry.attempts value >= 1");        // and absorbed by retries
  slos.add("retry.gave_up value <= 0");         // without exhausting budgets
  slos.add("eval.candidate.seconds p99 < 60");
  const auto results = slos.evaluate();
  slos.clear();

  std::size_t evaluable = 0;
  for (const auto& r : results) {
    if (r.evaluable) {
      ++evaluable;
      EXPECT_TRUE(r.pass) << r.spec.text << " observed " << r.observed;
    }
  }
  EXPECT_GE(evaluable, 3u);
  EXPECT_GE(obs::counter("slo.evaluations").value(), evaluable);
}

// ---------------------------------------------------------------------------
// Golden-file satellite: the fault/retry metric names are a contract.

// Deterministically fires each event-registered fault metric so its name
// appears in the registry regardless of which tests ran before.
void exercise_fault_metrics() {
  RetryPolicy tiny;
  tiny.max_attempts = 2;
  tiny.initial_backoff_seconds = 0.01;
  tiny.deadline_seconds = 1.0;

  {  // retry.gave_up + eval.darr_degraded + net.fault.partitioned
    ChaosSchedule schedule;
    schedule.seed = 7;
    schedule.partitioned_client = 0;
    schedule.partition_start = 0.0;
    schedule.partition_end = 1e9;
    run_tabular(tabular_dataset(), 1, schedule);
  }
  {  // net.fault.dropped + retry.attempts
    dist::SimNet net;
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    dist::SimNet::FaultConfig faults;
    faults.drop_probability = 0.5;
    net.set_faults(faults);
    for (int i = 0; i < 32; ++i) {
      try {
        dist::transfer_with_retry(net, a, b, 8, tiny, "golden");
      } catch (const NetworkError&) {
      }
    }
  }
  {  // darr.client.claims_abandoned
    chaos::ChaosFabric fabric(1, ChaosSchedule{});
    ASSERT_TRUE(fabric.clients[0]->claim("golden"));
    fabric.clients[0]->abandon_all();
  }
  {  // homestore.push.lost: store -> subscriber link is dead forever
    dist::SimNet net;
    const auto store_node = net.add_node("store");
    const auto client_node = net.add_node("client");
    dist::HomeDataStore::Config cfg;
    cfg.retry = tiny;
    dist::HomeDataStore store(&net, store_node, cfg);
    store.set_push_handler([](dist::NodeId, const dist::PushMessage&) {});
    store.subscribe("k", client_node, 1e9, dist::PushMode::kFullValue);
    net.partition(store_node, client_node, net.now(), 1e9);
    store.put("k", Bytes{1, 2, 3});
  }
  {  // clientcache.push.stale: replay of an already-applied version
    dist::SimNet net;
    const auto store_node = net.add_node("store");
    const auto client_node = net.add_node("client");
    dist::HomeDataStore store(&net, store_node);
    dist::ClientCache cache(&net, client_node, &store);
    store.put("k", Bytes{1});
    cache.get("k");
    dist::PushMessage stale;
    stale.key = "k";
    stale.version = cache.version("k");  // at the held version: a replay
    stale.mode = dist::PushMode::kFullValue;
    stale.full_value = Bytes{9};
    cache.on_push(stale);
  }
  {  // replication.failed_syncs: primary -> replica link is dead
    dist::SimNet net;
    const auto primary = net.add_node("primary");
    const auto replica = net.add_node("replica");
    dist::ReplicatedStore::Config cfg;
    cfg.store.retry = tiny;
    dist::ReplicatedStore group(&net, {primary, replica}, cfg);
    net.partition(primary, replica, net.now(), 1e9);
    group.put("k", Bytes{1, 2, 3});
  }
  {  // telemetry.reports.sent/failed + telemetry.bytes.sent +
     // telemetry.reports.ingested: one reporter flush over a clean link
    dist::SimNet net;
    const auto src = net.add_node("golden-src");
    const auto sink_node = net.add_node("telemetry");
    auto& shard = obs::MetricScope::for_node("golden-src");
    shard.counter("golden.telemetry").inc();
    obs::TelemetryCollector collector;
    dist::TelemetryReporter reporter(&net, src, sink_node, &collector,
                                     &shard.registry(), "golden-src", tiny);
    reporter.flush();
  }
  {  // slo.evaluations + slo.violations: any evaluation registers them
    auto& slos = obs::global_slos();
    slos.add("retry.attempts value >= 0");
    slos.evaluate();
    slos.clear();
  }
  {  // kernel.gemm.calls + kernel.gemm.flops: any matmul registers them
    Matrix a(2, 3);
    Matrix b(3, 2);
    a.fill(1.0);
    b.fill(1.0);
    (void)kernels::matmul(a, b);
  }
  {  // eval.search.rungs + eval.search.pruned +
     // eval.search.fold_evals_saved: one tiny halving race (9 candidates,
     // eta=2 seals two pruning rungs before the final full-CV rung)
    SearchOptions halving;
    halving.strategy = SearchStrategy::kHalving;
    chaos::run_chaos_search(tabular_graph(), tabular_dataset(), KFold(3),
                            Metric::kRmse, 1, ChaosSchedule{}, halving);
  }
  {  // pool.tasks / timerwheel.scheduled+fired / prof.scopes: executor and
     // profiler instrumentation (ISSUE 9)
    ThreadPool pool(1);
    TaskGroup group(pool);
    group.submit([] { PROF_SCOPE("golden.prof.region"); });
    group.wait();
    TimerWheel wheel;
    std::promise<void> fired;
    wheel.schedule(std::chrono::milliseconds(1),
                   [&fired] { fired.set_value(); });
    fired.get_future().wait();
  }
}

// Every registered name (counters, gauges, histograms) of `registry`.
std::vector<std::string> registered_names(
    const obs::MetricsRegistry& registry) {
  std::vector<std::string> names;
  for (const auto& [name, value] : registry.counter_values()) {
    names.push_back(name);
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    names.push_back(name);
  }
  for (const auto& [name, histogram] : registry.histogram_views()) {
    names.push_back(name);
  }
  return names;
}

TEST(Chaos, FaultMetricNamesMatchGoldenFile) {
  exercise_fault_metrics();
  // A telemetry-on fleet run (clients, shards, collector node) on top of
  // the chaos fabrics above.
  darr::FleetOptions fleet;
  fleet.n_clients = 3;
  (void)darr::run_cooperative_search(tabular_graph(), tabular_dataset(),
                                     KFold(3), Metric::kRmse, fleet);

  // One metric name per fact: no per-instance (`#`) names anywhere, in
  // the process-wide registry or in any node's shard.
  for (const auto& name :
       registered_names(obs::MetricsRegistry::instance())) {
    EXPECT_EQ(name.find('#'), std::string::npos) << "global: " << name;
  }
  for (const auto& node : obs::MetricScope::nodes()) {
    for (const auto& name :
         registered_names(obs::MetricScope::for_node(node).registry())) {
      EXPECT_EQ(name.find('#'), std::string::npos) << node << ": " << name;
    }
  }

  const std::string path =
      std::string(CODA_GOLDEN_DIR) + "/metrics_keys.txt";
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing golden file: " << path;
  std::set<std::string> expected;
  std::string line;
  while (std::getline(golden, line)) {
    if (!line.empty() && line[0] != '#') expected.insert(line);
  }
  ASSERT_FALSE(expected.empty());

  std::set<std::string> registered;
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counter_values()) {
    (void)value;
    registered.insert(name);
  }

  // Every contracted name must exist...
  for (const auto& name : expected) {
    EXPECT_TRUE(registered.count(name))
        << "golden metric not registered: " << name;
  }
  // ...and the fixed fault/retry/executor families must not grow or get
  // renamed without the golden file (and README) being updated.
  // Per-op (`eval.darr_degraded.<op>`) names are excluded: their
  // membership depends on which ops a run touches. The per-region
  // `prof.<region>.*` counters are likewise NOT a strict family — region
  // names are defined at PROF_SCOPE call sites and grow with
  // instrumentation; only the fixed `prof.scopes` counter is contracted.
  const std::vector<std::string> families = {"net.fault.", "retry.",
                                             "pool.", "timerwheel."};
  for (const auto& name : registered) {
    for (const auto& family : families) {
      if (name.rfind(family, 0) == 0) {
        EXPECT_TRUE(expected.count(name))
            << "metric missing from golden file: " << name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Successive-halving chaos (DESIGN.md §16): the rung scheduler racing the
// golden-seed graphs across a cooperative fleet. Identity invariant: the
// halving fleet selects the exact best pipeline the exhaustive fault-free
// run selects. Redundancy invariant: the fleet computes exactly the rung
// plan's fold total — every (candidate, rung) unit runs on one client.

SearchOptions halving_search(std::size_t eta = 2, std::uint64_t seed = 0) {
  SearchOptions search;
  search.strategy = SearchStrategy::kHalving;
  search.eta = eta;
  search.seed = seed;
  return search;
}

// The fold-level zero-redundancy invariant. Candidate-level
// `redundant_evaluations` does not apply to halving: one candidate's rungs
// may legitimately split across clients.
void expect_zero_fold_redundancy(const ChaosRun& run) {
  ASSERT_GT(run.fold_evaluations_planned, 0u);
  EXPECT_EQ(run.total_fold_evaluations, run.fold_evaluations_planned);
}

// Identity against the exhaustive baseline: every client of the halving
// fleet reports the same winner with its bit-identical full-CV score.
void expect_same_best(const ChaosRun& run, const EvaluationReport& baseline) {
  for (const auto& report : run.reports) {
    ASSERT_FALSE(report.results.empty());
    EXPECT_EQ(report.best().spec, baseline.best().spec);
    EXPECT_DOUBLE_EQ(report.best().mean_score, baseline.best().mean_score);
    EXPECT_EQ(report.best().fold_scores, baseline.best().fold_scores);
  }
}

TEST(Chaos, HalvingFig3MatchesExhaustiveWithZeroFoldRedundancy) {
  const Dataset data = tabular_dataset();
  const ChaosRun exhaustive = run_tabular(data, 1, ChaosSchedule{});
  const EvaluationReport& baseline = exhaustive.reports[0];

  const ChaosRun fleet = chaos::run_chaos_search(
      tabular_graph(), data, KFold(3), Metric::kRmse, 3, ChaosSchedule{},
      halving_search());
  expect_same_best(fleet, baseline);
  expect_zero_fold_redundancy(fleet);
  // The race genuinely saves folds over candidates × folds.
  EXPECT_LT(fleet.fold_evaluations_planned, fleet.total_candidates * 3);

  for (const auto& schedule : transient_schedules()) {
    SCOPED_TRACE(schedule.describe());
    const FlightRecorderOnFailure flight(schedule);
    const ChaosRun run = chaos::run_chaos_search(
        tabular_graph(), data, KFold(3), Metric::kRmse, 3, schedule,
        halving_search());
    expect_same_best(run, baseline);
    expect_zero_fold_redundancy(run);
  }
}

TEST(Chaos, HalvingFig11MatchesExhaustiveWithZeroFoldRedundancy) {
  const TimeSeries series = forecast_series();
  const ChaosRun exhaustive = run_forecast(series, 1, ChaosSchedule{});
  const EvaluationReport& baseline = exhaustive.reports[0];
  const TimeSeriesSlidingSplit cv(2, 100, 30, 5);

  const ChaosRun fleet = chaos::run_chaos_forecast_search(
      forecast_graph(), series, cv, Metric::kRmse, 3, ChaosSchedule{},
      halving_search());
  expect_same_best(fleet, baseline);
  expect_zero_fold_redundancy(fleet);

  for (const auto& schedule : transient_schedules()) {
    SCOPED_TRACE(schedule.describe());
    const FlightRecorderOnFailure flight(schedule);
    const ChaosRun run = chaos::run_chaos_forecast_search(
        forecast_graph(), series, cv, Metric::kRmse, 3, schedule,
        halving_search());
    expect_same_best(run, baseline);
    expect_zero_fold_redundancy(run);
  }
}

TEST(Chaos, HalvingTemplateSearchesMatchExhaustiveAcrossTheFleet) {
  // The four §IV-E template search spaces over their golden-seed
  // workloads. Baseline = plain exhaustive evaluation (no fabric); the
  // halving fleet must select the identical pipeline while computing
  // exactly the rung plan's fold total.
  struct Case {
    const char* name;
    TEGraph (*graph)();
    Dataset data;
    Metric metric;
  };
  // The failure workload runs at fleet scale (2× the default sample
  // count): with only ~48 rare-failure rows the per-fold F1 of the mid
  // field is noisy enough that fold-0 ranking can cut the eventual
  // winner; at 1200 samples the golden seed's fold scores are stable and
  // the identity invariant holds.
  FailureWorkloadConfig failure_cfg;
  failure_cfg.n_samples = 1200;
  std::vector<Case> cases;
  cases.push_back({"failure_prediction",
                   &templates::FailurePredictionAnalysis::search_graph,
                   make_failure_workload(failure_cfg), Metric::kF1});
  cases.push_back({"root_cause", &templates::RootCauseAnalysis::search_graph,
                   make_regression({}), Metric::kRmse});
  cases.push_back({"anomaly", &templates::AnomalyAnalysis::search_graph,
                   make_anomaly_workload({}), Metric::kF1});
  cases.push_back({"cohort", &templates::CohortAnalysis::search_graph,
                   templates::CohortAnalysis::membership_dataset(
                       make_cohort_workload({}), 0),
                   Metric::kAccuracy});

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    EvalOptions options;
    options.metric = c.metric;
    options.threads = 1;
    const EvaluationReport baseline =
        GraphEvaluator(options).evaluate(c.graph(), c.data, KFold(3));

    const ChaosRun fleet = chaos::run_chaos_search(
        c.graph(), c.data, KFold(3), c.metric, 2, ChaosSchedule{},
        halving_search());
    expect_same_best(fleet, baseline);
    expect_zero_fold_redundancy(fleet);
    EXPECT_LT(fleet.fold_evaluations_planned, fleet.total_candidates * 3);
  }
}

TEST(Chaos, HalvingTemplateSearchSurvivesATransientSchedule) {
  // One heavier probe: the failure-prediction template under a seeded
  // drop/spike schedule — faults fire, and both invariants still hold.
  FailureWorkloadConfig failure_cfg;
  failure_cfg.n_samples = 1200;  // identity-stable scale (see above)
  const Dataset data = make_failure_workload(failure_cfg);
  EvalOptions options;
  options.metric = Metric::kF1;
  options.threads = 1;
  const EvaluationReport baseline = GraphEvaluator(options).evaluate(
      templates::FailurePredictionAnalysis::search_graph(), data, KFold(3));

  ChaosSchedule schedule;
  schedule.seed = 606;
  schedule.drop_probability = 0.3;
  schedule.latency_spike_probability = 0.2;
  SCOPED_TRACE(schedule.describe());
  const FlightRecorderOnFailure flight(schedule);
  const ChaosRun run = chaos::run_chaos_search(
      templates::FailurePredictionAnalysis::search_graph(), data, KFold(3),
      Metric::kF1, 3, schedule, halving_search());
  EXPECT_GT(run.fault_stats.dropped, 0u);
  expect_same_best(run, baseline);
  expect_zero_fold_redundancy(run);
}

}  // namespace
}  // namespace coda
