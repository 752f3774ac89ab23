// Fleet telemetry tests (DESIGN.md §12): time-series rings, snapshot
// deltas and their loss-safe wire protocol, per-node MetricScope isolation
// under concurrency, the TelemetryCollector's aggregates, the SLO
// evaluator, and the end-to-end invariant that a cooperative run's
// collected fleet telemetry reproduces the process-wide registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/dist/telemetry.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"

namespace coda {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries

TEST(TimeSeries, RingKeepsNewestAndCountsDrops) {
  obs::TimeSeries series(4);
  for (int i = 0; i < 10; ++i) {
    series.sample(static_cast<double>(i), static_cast<double>(i * i));
  }
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.total_samples(), 10u);
  EXPECT_EQ(series.dropped(), 6u);
  const auto points = series.points();
  ASSERT_EQ(points.size(), 4u);
  // Oldest first: samples 6..9 survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(points[i].t, static_cast<double>(6 + i));
    EXPECT_DOUBLE_EQ(points[i].value, static_cast<double>((6 + i) * (6 + i)));
  }
  EXPECT_DOUBLE_EQ(series.latest().value, 81.0);
}

TEST(TimeSeries, RatePerSecondFromEndpoints) {
  obs::TimeSeries series(8);
  EXPECT_DOUBLE_EQ(series.rate_per_second(), 0.0);
  series.sample(10.0, 100.0);
  EXPECT_DOUBLE_EQ(series.rate_per_second(), 0.0);  // one point: no rate
  series.sample(20.0, 400.0);
  EXPECT_DOUBLE_EQ(series.rate_per_second(), 30.0);
  series.sample(20.0, 500.0);  // same timestamp allowed
  EXPECT_DOUBLE_EQ(series.rate_per_second(), 40.0);
}

// ---------------------------------------------------------------------------
// Histogram::merge

TEST(HistogramMerge, MergeMatchesSingleHistogramFedBothStreams) {
  obs::Histogram a({0.1, 1.0, 10.0});
  obs::Histogram b({0.1, 1.0, 10.0});
  obs::Histogram both({0.1, 1.0, 10.0});
  for (double v : {0.05, 0.5, 0.7, 5.0}) {
    a.observe(v);
    both.observe(v);
  }
  for (double v : {0.2, 2.0, 20.0, 50.0}) {
    b.observe(v);
    both.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  for (std::size_t i = 0; i < a.n_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), both.bucket_count(i)) << "bucket " << i;
  }
  // Quantiles are a pure function of the buckets, so they now agree too.
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramMerge, MismatchedBoundsThrow) {
  obs::Histogram a({1.0, 2.0});
  obs::Histogram b({1.0, 3.0});
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot wire format

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsSnapshot snap;
  snap.counters["c.one"] = 7;
  snap.counters["c.two"] = 123456789;
  snap.gauges["g.load"] = 0.75;
  obs::HistogramSnapshot h;
  h.bounds = {1.0, 10.0};
  h.buckets = {3, 2, 1};
  h.count = 6;
  h.sum = 42.5;
  snap.histograms["h.lat"] = h;
  return snap;
}

TEST(MetricsSnapshot, SerializeRoundTrips) {
  const obs::MetricsSnapshot snap = sample_snapshot();
  const Bytes wire = snap.serialize();
  EXPECT_EQ(wire.size(), snap.encoded_size());
  const obs::MetricsSnapshot back = obs::MetricsSnapshot::deserialize(wire);
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), 1u);
  const auto& h = back.histograms.at("h.lat");
  EXPECT_EQ(h.bounds, snap.histograms.at("h.lat").bounds);
  EXPECT_EQ(h.buckets, snap.histograms.at("h.lat").buckets);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 42.5);
}

TEST(MetricsSnapshot, TruncatedBufferThrowsDecodeError) {
  Bytes wire = sample_snapshot().serialize();
  for (std::size_t cut : {wire.size() - 1, wire.size() / 2, std::size_t{3}}) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(obs::MetricsSnapshot::deserialize(truncated), DecodeError)
        << "cut at " << cut;
  }
}

TEST(MetricsSnapshot, DeltaShipsOnlyChangesAndApplyReconstructs) {
  obs::MetricsSnapshot base = sample_snapshot();
  obs::MetricsSnapshot current = sample_snapshot();
  current.counters["c.one"] = 10;        // +3
  current.counters["c.new"] = 5;         // new counter
  current.gauges["g.load"] = 0.5;        // changed
  current.histograms["h.lat"].buckets = {4, 2, 1};
  current.histograms["h.lat"].count = 7;
  current.histograms["h.lat"].sum = 43.0;

  const obs::MetricsSnapshot delta = obs::snapshot_delta(base, current);
  EXPECT_EQ(delta.counters.at("c.one"), 3u);  // increment, not absolute
  EXPECT_EQ(delta.counters.at("c.new"), 5u);
  EXPECT_EQ(delta.counters.count("c.two"), 0u);  // unchanged: omitted
  EXPECT_DOUBLE_EQ(delta.gauges.at("g.load"), 0.5);

  obs::MetricsSnapshot rebuilt = base;
  obs::apply_snapshot_delta(rebuilt, delta);
  EXPECT_EQ(rebuilt.counters, current.counters);
  EXPECT_EQ(rebuilt.gauges, current.gauges);
  EXPECT_EQ(rebuilt.histograms.at("h.lat").buckets,
            current.histograms.at("h.lat").buckets);
  EXPECT_DOUBLE_EQ(rebuilt.histograms.at("h.lat").sum, 43.0);
}

TEST(MetricsSnapshot, CounterGoingBackwardsReshipsAbsoluteValue) {
  obs::MetricsSnapshot base;
  base.counters["c"] = 100;
  obs::MetricsSnapshot current;
  current.counters["c"] = 4;  // registry was reset between snapshots
  const obs::MetricsSnapshot delta = obs::snapshot_delta(base, current);
  EXPECT_EQ(delta.counters.at("c"), 4u);
}

TEST(MetricsSnapshot, NoChangeMeansEmptyDelta) {
  const obs::MetricsSnapshot snap = sample_snapshot();
  EXPECT_TRUE(obs::snapshot_delta(snap, snap).empty());
}

// ---------------------------------------------------------------------------
// MetricScope isolation

TEST(MetricScope, ShardsIsolatePerNodeUnderThreadPool) {
  obs::reset_all();
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kPerNode = 20000;
  ThreadPool pool(kNodes);
  TaskGroup group(pool);
  for (std::size_t n = 0; n < kNodes; ++n) {
    group.submit([n] {
      const std::string node = "scope-node" + std::to_string(n);
      const obs::NodeScope scope(node);
      for (std::uint64_t i = 0; i < kPerNode; ++i) {
        obs::count_scoped("test.scope.iso", 1);
      }
    });
  }
  group.wait();

  // Every shard holds exactly its own node's writes...
  for (std::size_t n = 0; n < kNodes; ++n) {
    const std::string node = "scope-node" + std::to_string(n);
    obs::MetricScope* scope = obs::MetricScope::find(node);
    ASSERT_NE(scope, nullptr) << node;
    EXPECT_EQ(scope->counter("test.scope.iso").value(), kPerNode) << node;
  }
  // ...and the process-wide registry the exact sum.
  EXPECT_EQ(obs::counter("test.scope.iso").value(), kNodes * kPerNode);
}

TEST(MetricScope, NodeScopeRestoresPreviousShardOnExit) {
  EXPECT_EQ(obs::MetricScope::current(), nullptr);
  {
    obs::NodeScope outer("scope-outer");
    ASSERT_NE(obs::MetricScope::current(), nullptr);
    EXPECT_EQ(obs::MetricScope::current()->node(), "scope-outer");
    {
      obs::NodeScope inner("scope-inner");
      EXPECT_EQ(obs::MetricScope::current()->node(), "scope-inner");
    }
    EXPECT_EQ(obs::MetricScope::current()->node(), "scope-outer");
  }
  EXPECT_EQ(obs::MetricScope::current(), nullptr);
}

TEST(MetricScope, ResetAllZeroesShardValuesButKeepsRegistrations) {
  auto& shard = obs::MetricScope::for_node("scope-reset");
  shard.counter("test.scope.reset").inc(9);
  obs::Counter* before = &shard.counter("test.scope.reset");
  obs::reset_all();
  EXPECT_EQ(before->value(), 0u);
  EXPECT_EQ(&obs::MetricScope::for_node("scope-reset")
                 .counter("test.scope.reset"),
            before);
}

// ---------------------------------------------------------------------------
// TelemetryCollector

TEST(TelemetryCollector, FleetAggregatesAndTopK) {
  obs::TelemetryCollector collector;
  collector.track("work.done");

  obs::MetricsSnapshot a;
  a.counters["work.done"] = 10;
  obs::MetricsSnapshot b;
  b.counters["work.done"] = 30;
  collector.ingest("alpha", 1.0, a);
  collector.ingest("beta", 1.0, b);

  EXPECT_EQ(collector.nodes(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(collector.reports_ingested(), 2u);
  EXPECT_EQ(collector.fleet().counters.at("work.done"), 40u);
  EXPECT_EQ(collector.node_snapshot("alpha").counters.at("work.done"), 10u);

  const auto top = collector.top_k("work.done", 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "beta");
  EXPECT_DOUBLE_EQ(top[0].second, 30.0);
  EXPECT_EQ(top[1].first, "alpha");
}

TEST(TelemetryCollector, TracksSeriesPerNodeAndFleetWide) {
  obs::TelemetryCollector collector;
  collector.track("work.done");
  obs::MetricsSnapshot d;
  d.counters["work.done"] = 10;
  collector.ingest("alpha", 1.0, d);
  collector.ingest("alpha", 2.0, d);  // +10 again at t=2

  const auto node_series = collector.series("alpha", "work.done");
  ASSERT_TRUE(node_series.has_value());
  ASSERT_EQ(node_series->size(), 2u);
  EXPECT_DOUBLE_EQ(node_series->latest().value, 20.0);
  EXPECT_DOUBLE_EQ(collector.rate("alpha", "work.done"), 10.0);

  const auto fleet_series = collector.series("", "work.done");
  ASSERT_TRUE(fleet_series.has_value());
  EXPECT_DOUBLE_EQ(fleet_series->latest().value, 20.0);

  EXPECT_FALSE(collector.series("alpha", "untracked").has_value());
  EXPECT_FALSE(collector.series("nobody", "work.done").has_value());
}

TEST(TelemetryCollector, DescribeDivergenceFlagsMismatch) {
  obs::TelemetryCollector collector;
  obs::MetricsSnapshot d;
  d.counters["work.done"] = 10;
  collector.ingest("alpha", 1.0, d);

  obs::MetricsSnapshot expected;
  expected.counters["work.done"] = 10;
  expected.counters["unscoped.extra"] = 99;  // extra keys are fine
  EXPECT_EQ(collector.describe_divergence(expected), "");

  expected.counters["work.done"] = 11;
  const std::string diff = collector.describe_divergence(expected);
  EXPECT_NE(diff.find("work.done"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryReporter over SimNet with fault injection

TEST(TelemetryReporter, DeltaSurvivesDropsAndRetransmits) {
  obs::reset_all();
  dist::SimNet net;
  const dist::NodeId source_node = net.add_node("reporter-src");
  const dist::NodeId sink_node = net.add_node("telemetry");

  auto& shard = obs::MetricScope::for_node("reporter-src");
  obs::TelemetryCollector collector;
  RetryPolicy tiny;
  tiny.max_attempts = 2;
  tiny.initial_backoff_seconds = 0.001;
  tiny.deadline_seconds = 0.01;
  dist::TelemetryReporter reporter(&net, source_node, sink_node, &collector,
                                   &shard.registry(), "reporter-src", tiny);

  shard.counter("work.done").inc(5);
  ASSERT_TRUE(reporter.flush());
  EXPECT_EQ(collector.node_snapshot("reporter-src").counters.at("work.done"),
            5u);

  // The link partitions: the report fails, the acked base stays put.
  net.partition(source_node, sink_node, net.now(), 1e9);
  shard.counter("work.done").inc(3);
  EXPECT_FALSE(reporter.flush());
  EXPECT_EQ(reporter.reports_failed(), 1u);
  EXPECT_EQ(collector.node_snapshot("reporter-src").counters.at("work.done"),
            5u);

  // More work during the outage, then the link heals: one flush catches
  // the collector up exactly (lost increments merged with newer ones).
  shard.counter("work.done").inc(2);
  net.heal_partitions();
  EXPECT_TRUE(reporter.flush());
  EXPECT_EQ(collector.node_snapshot("reporter-src").counters.at("work.done"),
            10u);

  // Nothing new: flush is a cheap no-op that sends no message.
  const std::uint64_t sent_before = reporter.reports_sent();
  EXPECT_TRUE(reporter.flush());
  EXPECT_EQ(reporter.reports_sent(), sent_before);
}

TEST(TelemetryReporter, ReconstructsHistogramsExactly) {
  obs::reset_all();
  dist::SimNet net;
  const dist::NodeId source_node = net.add_node("hist-src");
  const dist::NodeId sink_node = net.add_node("telemetry");
  auto& shard = obs::MetricScope::for_node("hist-src");
  obs::TelemetryCollector collector;
  dist::TelemetryReporter reporter(&net, source_node, sink_node, &collector,
                                   &shard.registry(), "hist-src");

  auto& h = shard.histogram("lat.seconds", {0.01, 0.1, 1.0});
  h.observe(0.005);
  h.observe(0.05);
  ASSERT_TRUE(reporter.flush());
  h.observe(0.5);
  h.observe(5.0);
  ASSERT_TRUE(reporter.flush());

  const auto snap = collector.node_snapshot("hist-src");
  const auto& got = snap.histograms.at("lat.seconds");
  EXPECT_EQ(got.count, h.count());
  EXPECT_DOUBLE_EQ(got.sum, h.sum());
  for (std::size_t i = 0; i < h.n_buckets(); ++i) {
    EXPECT_EQ(got.buckets[i], h.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(got.quantile(0.5), h.quantile(0.5));
}

// ---------------------------------------------------------------------------
// SLO evaluator

TEST(Slo, ParsesTheOneLineSyntax) {
  const obs::SloSpec spec = obs::parse_slo("eval.claim.wait p99 < 0.5");
  EXPECT_EQ(spec.metric, "eval.claim.wait");
  EXPECT_EQ(spec.stat, obs::SloSpec::Stat::kP99);
  EXPECT_EQ(spec.cmp, obs::SloSpec::Cmp::kLt);
  EXPECT_DOUBLE_EQ(spec.threshold, 0.5);

  EXPECT_THROW(obs::parse_slo(""), InvalidArgument);
  EXPECT_THROW(obs::parse_slo("too few"), InvalidArgument);
  EXPECT_THROW(obs::parse_slo("m p99 < 0.5 extra"), InvalidArgument);
  EXPECT_THROW(obs::parse_slo("m p98 < 0.5"), InvalidArgument);
  EXPECT_THROW(obs::parse_slo("m p99 != 0.5"), InvalidArgument);
  EXPECT_THROW(obs::parse_slo("m p99 < nope"), InvalidArgument);
}

TEST(Slo, EvaluatesAgainstRegistryAndCountsViolations) {
  obs::reset_all();
  obs::counter("test.slo.requests").inc(10);
  auto& slos = obs::global_slos();
  slos.add("test.slo.requests value >= 1");   // pass
  slos.add("test.slo.requests value < 5");    // fail: 10 >= 5
  slos.add("test.slo.absent value >= 1");     // not evaluable

  const auto results = slos.evaluate();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].evaluable);
  EXPECT_TRUE(results[0].pass);
  EXPECT_TRUE(results[1].evaluable);
  EXPECT_FALSE(results[1].pass);
  EXPECT_FALSE(results[2].evaluable);

  EXPECT_EQ(obs::counter("slo.evaluations").value(), 2u);
  EXPECT_EQ(obs::counter("slo.violations").value(), 1u);
  EXPECT_DOUBLE_EQ(obs::gauge("slo.checks.pass").value(), 1.0);
  EXPECT_DOUBLE_EQ(obs::gauge("slo.checks.fail").value(), 1.0);

  // results() returns the stored outcome; snapshot_json renders it.
  EXPECT_EQ(slos.results().size(), 3u);
  const std::string json = obs::snapshot_json();
  EXPECT_NE(json.find("\"slo\":["), std::string::npos);
  EXPECT_NE(json.find("test.slo.requests value < 5"), std::string::npos);
}

TEST(Slo, PrefersBoundFleetOverRegistry) {
  obs::reset_all();
  obs::counter("test.slo.fleetpref").inc(100);  // registry says 100
  obs::TelemetryCollector collector;
  obs::MetricsSnapshot d;
  d.counters["test.slo.fleetpref"] = 3;  // the fleet reported 3
  collector.ingest("alpha", 1.0, d);

  auto& slos = obs::global_slos();
  slos.add("test.slo.fleetpref value <= 5");
  slos.bind_fleet(&collector);
  const auto results = slos.evaluate();
  slos.bind_fleet(nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].pass);
  EXPECT_DOUBLE_EQ(results[0].observed, 3.0);
}

TEST(Slo, RateStatMeasuresChangeAcrossEvaluations) {
  obs::reset_all();
  auto& c = obs::counter("test.slo.rate");
  auto& slos = obs::global_slos();
  slos.add("test.slo.rate rate < 100");
  c.inc(10);
  slos.evaluate(0.0);
  c.inc(50);  // +50 over 1 simulated second = rate 50
  const auto results = slos.evaluate(1.0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].evaluable);
  EXPECT_DOUBLE_EQ(results[0].observed, 50.0);
  EXPECT_TRUE(results[0].pass);
}

TEST(Slo, DashboardRendersFleetAndChecks) {
  obs::reset_all();
  obs::TelemetryCollector collector;
  collector.track("work.done");
  obs::MetricsSnapshot d;
  d.counters["work.done"] = 10;
  collector.ingest("alpha", 1.0, d);
  auto& slos = obs::global_slos();
  slos.add("work.done value >= 1");
  slos.bind_fleet(&collector);  // the check reads collected telemetry

  const std::string dash = obs::telemetry_dashboard(&collector);
  slos.bind_fleet(nullptr);
  EXPECT_NE(dash.find("coda telemetry"), std::string::npos);
  EXPECT_NE(dash.find("alpha"), std::string::npos);
  EXPECT_NE(dash.find("work.done"), std::string::npos);
  EXPECT_NE(dash.find("== slo =="), std::string::npos);
  EXPECT_NE(dash.find("PASS"), std::string::npos);
  obs::global_slos().clear();
}

// ---------------------------------------------------------------------------
// End-to-end: cooperative runs

Dataset mini_dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 80;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  return make_regression(cfg);
}

TEGraph mini_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<KnnRegressor>());
  g.add_regression_models(std::move(models));
  return g;  // 4 candidates
}

TEST(FleetTelemetry, CooperativeRunFleetMatchesGlobalRegistry) {
  obs::reset_all();
  const auto report = darr::run_cooperative_search(
      mini_graph(), mini_dataset(), KFold(3), Metric::kRmse, 2);
  ASSERT_NE(report.telemetry, nullptr);
  // Fault-free run: the collector's aggregate must reproduce the global
  // registry bit-for-bit on every fleet-shipped family.
  EXPECT_EQ(report.telemetry_divergence, "");
  // Every client reported, plus the repository.
  const auto nodes = report.telemetry->nodes();
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_NE(obs::counter("telemetry.reports.sent").value(), 0u);
  EXPECT_EQ(obs::counter("telemetry.reports.ingested").value(),
            report.telemetry->reports_ingested());
}

// Integer-valued metric state of the process: global counters plus every
// shard's counters. Timing histograms are excluded by construction —
// their values are wall-clock dependent even for identical runs — and so
// are the published prof.<region>.self_ns counters, which carry
// nanosecond wall time by design (the profiler's determinism contract
// covers the region set and call counts, never the times; the
// prof.<region>.calls counters stay in the comparison).
std::map<std::string, std::uint64_t> integer_metric_state() {
  const auto wall_clock_valued = [](const std::string& name) {
    static const std::string kSuffix = ".self_ns";
    return name.size() > kSuffix.size() &&
           name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) == 0;
  };
  std::map<std::string, std::uint64_t> state;
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counter_values()) {
    if (!wall_clock_valued(name)) state["global/" + name] = value;
  }
  for (const auto& node : obs::MetricScope::nodes()) {
    const auto* scope = obs::MetricScope::find(node);
    for (const auto& [name, value] : scope->registry().counter_values()) {
      if (!wall_clock_valued(name)) state[node + "/" + name] = value;
    }
  }
  return state;
}

TEST(FleetTelemetry, BackToBackRunsProduceIdenticalMetricsOutput) {
  const TEGraph graph = mini_graph();
  const Dataset data = mini_dataset();

  obs::reset_all();
  (void)darr::run_cooperative_search(graph, data, KFold(3), Metric::kRmse, 1);
  const auto first = integer_metric_state();

  obs::reset_all();
  (void)darr::run_cooperative_search(graph, data, KFold(3), Metric::kRmse, 1);
  const auto second = integer_metric_state();

  // Identical keys AND identical values: registered names are per-fact,
  // never per-instance, so the second run registered the same names, and
  // a single-client run has no scheduling nondeterminism in its counters.
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace coda
