// Causal-tracing acceptance suite (ctest -R trace): a cooperative Fig-2
// search must yield one connected span tree per requesting client — client
// compute, darr client ops, repository work, and every network transfer
// (including retries across a healed partition) all reachable from that
// client's "eval.run" root span — and the Chrome trace-event export of
// such a run must be valid JSON with one process per simulated node. Every
// steady-clock span is the span half of a profiler region of its name.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/dist/retry.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/ts/forecast_graph.h"
#include "src/ts/nn_forecasters.h"
#include "src/ts/windowing.h"

namespace coda {
namespace {

// ---------------------------------------------------------------------------
// Fig-2 workload: the 9-candidate tabular graph from the cooperative tests.

Dataset dataset() {
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 4;
  cfg.n_informative = 3;
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

// Spans of one trace, indexed by span id.
using SpanIndex = std::map<std::uint64_t, obs::SpanRecord>;

std::map<std::uint64_t, SpanIndex> spans_by_trace(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<std::uint64_t, SpanIndex> traces;
  for (const auto& s : spans) traces[s.trace_id].emplace(s.id, s);
  return traces;
}

// Walks a span's parent chain inside its trace; returns the root span id
// reached, or 0 if a parent id is missing from the trace.
std::uint64_t chain_root(const SpanIndex& trace, const obs::SpanRecord& s) {
  const obs::SpanRecord* cur = &s;
  // Bounded walk: a well-formed tree terminates in < size() hops.
  for (std::size_t hops = 0; hops <= trace.size(); ++hops) {
    if (cur->parent_id == 0) return cur->id;
    const auto it = trace.find(cur->parent_id);
    if (it == trace.end()) return 0;
    cur = &it->second;
  }
  return 0;  // cycle — also a failure
}

TEST(Trace, CooperativeSearchYieldsOneConnectedTreePerTrace) {
  obs::reset_all();
  const auto report =
      darr::run_cooperative_search(graph(), dataset(), KFold(3),
                                   Metric::kRmse, 2);
  ASSERT_EQ(report.clients.size(), 2u);

  auto& tracer = obs::Tracer::instance();
  ASSERT_EQ(tracer.dropped(), 0u) << "ring too small for this run";
  const auto spans = tracer.snapshot();
  ASSERT_FALSE(spans.empty());
  const auto traces = spans_by_trace(spans);

  // One trace per client root; no span rides an unrelated trace.
  std::size_t evaluate_roots = 0;
  for (const auto& [trace_id, trace] : traces) {
    SCOPED_TRACE("trace " + std::to_string(trace_id));
    // Exactly one root, and it is the client's evaluation span.
    std::uint64_t root_id = 0;
    for (const auto& [id, s] : trace) {
      if (s.parent_id != 0) continue;
      EXPECT_EQ(root_id, 0u) << "second root: " << s.name;
      root_id = id;
      EXPECT_EQ(s.name, "eval.run");
    }
    ASSERT_NE(root_id, 0u);
    ++evaluate_roots;
    // Every span — compute, darr op, repository, network — reaches it.
    for (const auto& [id, s] : trace) {
      EXPECT_EQ(chain_root(trace, s), root_id)
          << "orphaned span: " << s.name;
    }
  }
  EXPECT_EQ(evaluate_roots, 2u);

  // The tree spans both clock domains and both sides of the fabric:
  // logical-clock network transfers and repository work attributed to the
  // repository's (single) shard node.
  bool saw_network = false;
  bool saw_repo = false;
  std::set<std::string> nodes;
  for (const auto& s : spans) {
    nodes.insert(s.node);
    if (s.clock == obs::ClockDomain::kLogical &&
        s.name.rfind("net.", 0) == 0) {
      saw_network = true;
    }
    if (s.name.rfind("darr.repo.", 0) == 0) {
      EXPECT_EQ(s.node, "shard0");
      saw_repo = true;
    }
  }
  EXPECT_TRUE(saw_network);
  EXPECT_TRUE(saw_repo);
  EXPECT_TRUE(nodes.count("client0"));
  EXPECT_TRUE(nodes.count("client1"));

  // Each trace got a steady/logical alignment anchor from its first
  // network transfer.
  const auto anchors = tracer.anchors();
  for (const auto& [trace_id, trace] : traces) {
    EXPECT_TRUE(anchors.count(trace_id))
        << "trace " << trace_id << " has no clock anchor";
  }
}

// One name per scope: a span and the profiler region its scope opens
// share a name, and the retired spellings (`evaluator.*`, `darr.lookup*`)
// appear neither as spans nor as registered metrics.
// Every steady-clock span recorded since the last reset is the span half
// of a Region, so its name is also a profiler-region name.
std::set<std::string> steady_spans_without_region() {
  std::set<std::string> regions;
  for (const auto& r : obs::prof::region_table()) regions.insert(r.name);
  std::set<std::string> missing;
  for (const auto& s : obs::Tracer::instance().snapshot()) {
    if (s.clock == obs::ClockDomain::kSteady && !regions.count(s.name)) {
      missing.insert(s.name);
    }
  }
  return missing;
}

bool has_span(const std::string& name) {
  for (const auto& s : obs::Tracer::instance().snapshot()) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(Trace, SpansShareTheirProfilerRegionNames) {
  const auto retired = [](const std::string& name) {
    return name.rfind("evaluator.", 0) == 0 ||
           name.find("darr.lookup") != std::string::npos;
  };

  // A Fig-2 cooperative search: eval.* and darr.* spans.
  obs::reset_all();
  (void)darr::run_cooperative_search(graph(), dataset(), KFold(3),
                                     Metric::kRmse, 2);
  EXPECT_TRUE(has_span("eval.run"));
  EXPECT_TRUE(has_span("darr.client.claim"));
  EXPECT_EQ(steady_spans_without_region(), std::set<std::string>{});
  for (const auto& s : obs::Tracer::instance().snapshot()) {
    EXPECT_FALSE(retired(s.name)) << "retired span name: " << s.name;
  }

  // A forecast search over neural models: nn.train spans as well.
  obs::reset_all();
  IndustrialSeriesConfig cfg;
  cfg.length = 140;
  const TimeSeries series = make_industrial_series(cfg);
  ts::ForecastSpec spec;
  spec.history = 12;
  ts::ForecastGraph forecast(spec);
  forecast.add_scaler(std::make_unique<StandardScaler>());
  forecast.add_windower(std::make_unique<ts::CascadedWindows>(), "cascaded");
  auto lstm = std::make_unique<ts::LstmForecaster>();
  lstm->set_param("epochs", std::int64_t{2});
  forecast.add_model(std::move(lstm), "cascaded");
  (void)ts::ForecastGraphEvaluator(EvalOptions{}).evaluate(
      forecast, series, TimeSeriesSlidingSplit(2, 80, 20, 5));
  EXPECT_TRUE(has_span("nn.train"));
  EXPECT_EQ(steady_spans_without_region(), std::set<std::string>{});

  const auto& registry = obs::MetricsRegistry::instance();
  for (const auto& [name, value] : registry.counter_values()) {
    EXPECT_FALSE(retired(name)) << "retired counter: " << name;
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    EXPECT_FALSE(retired(name)) << "retired gauge: " << name;
  }
  for (const auto& [name, histogram] : registry.histogram_views()) {
    EXPECT_FALSE(retired(name)) << "retired histogram: " << name;
  }
}

TEST(Trace, RetrySpansAcrossHealedPartitionStayParented) {
  obs::reset_all();
  dist::SimNet net;
  const dist::NodeId client = net.add_node("client0");
  const dist::NodeId repo = net.add_node("darr");
  // Partition active from the first attempt; retry backoff walks the
  // logical clock past 0.2 and the operation heals mid-retry.
  net.partition(client, repo, 0.0, 0.2);
  net.partition(repo, client, 0.0, 0.2);

  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_seconds = 0.05;
  policy.multiplier = 2.0;
  policy.jitter_fraction = 0.0;  // deterministic attempt count

  std::uint64_t root_id = 0;
  std::uint64_t root_trace = 0;
  {
    const obs::NodeScope node_scope("client0");
    const obs::Region root(obs::region_id<"test.pull">(), obs::kTraced);
    root_id = root.context().parent_span_id;
    root_trace = root.context().trace_id;
    const auto result =
        dist::transfer_with_retry(net, client, repo, 64, policy, "pull");
    EXPECT_TRUE(result.ok());
  }

  const auto spans = obs::Tracer::instance().snapshot();
  std::vector<obs::SpanRecord> attempts;
  for (const auto& s : spans) {
    if (s.name == "net.pull") attempts.push_back(s);
  }
  // Backoffs 0.05 + 0.10 + 0.20 cross the partition window at the fourth
  // attempt: three partitioned failures, then the success.
  ASSERT_EQ(attempts.size(), 4u);
  for (const auto& s : attempts) {
    EXPECT_EQ(s.trace_id, root_trace);
    EXPECT_EQ(s.parent_id, root_id) << "attempt not parented under root";
    EXPECT_EQ(s.clock, obs::ClockDomain::kLogical);
    EXPECT_EQ(s.node, "darr");  // attributed to the receiving node
  }
  auto failure_tag = [](const obs::SpanRecord& s) -> std::string {
    for (const auto& [key, value] : s.tags) {
      if (key == "failure") return value;
    }
    return "";
  };
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(failure_tag(attempts[i]), "partitioned");
  }
  EXPECT_EQ(failure_tag(attempts[3]), "");
  // Logical starts are monotone: each retry happens after the backoff.
  for (std::size_t i = 1; i < attempts.size(); ++i) {
    EXPECT_GT(attempts[i].start_seconds, attempts[i - 1].start_seconds);
  }
}

// --- minimal JSON syntax checker (objects/arrays/strings/numbers) ---------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      default: return number_or_literal();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number_or_literal() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.')) {
      ++pos_;
    }
    return pos_ > start;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Trace, ChromeExportIsValidJsonWithProcessesAndEvents) {
  obs::reset_all();
  darr::run_cooperative_search(graph(), dataset(), KFold(3), Metric::kRmse,
                               2);

  const std::string json = obs::export_chrome_trace();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 512);

  // One process per simulated node: darr + client0 + client1.
  EXPECT_GE(count_occurrences(json, "\"process_name\""), 3u);
  // Complete events on both tracks, plus trailing counter samples.
  EXPECT_GT(count_occurrences(json, "\"ph\":\"X\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"cat\":\"network\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"cat\":\"compute\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"ph\":\"C\""), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(Trace, CandidateCostsAttributeFoldsAndCacheTraffic) {
  obs::reset_all();
  const auto report =
      darr::run_cooperative_search(graph(), dataset(), KFold(3),
                                   Metric::kRmse, 2);

  const auto costs = obs::CandidateCosts::instance().snapshot();
  ASSERT_EQ(costs.size(), 9u);  // one row per candidate path
  std::size_t folds = 0;
  std::size_t cached = 0;
  for (const auto& [path, cost] : costs) {
    SCOPED_TRACE(path);
    // Each candidate was either evaluated (3 folds) or served from the
    // repository — and with two clients both happen at least once.
    EXPECT_TRUE(cost.folds == 3 || cost.cached > 0);
    if (cost.folds > 0) {
      EXPECT_GT(cost.fold_seconds, 0.0);
    }
    folds += cost.folds;
    cached += cost.cached;
  }
  EXPECT_EQ(folds, 9u * 3u);  // zero-redundancy: every fold computed once
  std::size_t served = 0;
  for (const auto& client : report.clients) {
    served += client.served_from_cache;
  }
  EXPECT_EQ(cached, served);
}

}  // namespace
}  // namespace coda
