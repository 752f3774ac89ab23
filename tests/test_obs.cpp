// Tests for the observability layer: registry semantics (idempotent
// registration, exact concurrent counting), histogram bucket boundaries,
// span nesting/ring-buffer behaviour, and the JSON exporter's syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/obs.h"

namespace coda::obs {
namespace {

TEST(Counter, ConcurrentIncrementsSumExactly) {
  auto& c = counter("test.obs.concurrent");
  c.reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      auto& same = counter("test.obs.concurrent");
      for (std::uint64_t i = 0; i < kPerThread; ++i) same.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Counter, RegistrationIsIdempotent) {
  auto& a = counter("test.obs.same");
  auto& b = counter("test.obs.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.inc(3);
  b.inc(2);
  EXPECT_EQ(a.value(), 5u);
}

TEST(FactCounter, OneIncMovesOwnGlobalAndShardAlike) {
  auto& node = obs::MetricScope::for_node("fact-node");
  auto& global = obs::counter("test.fact.count");
  auto& shard = node.counter("test.fact.count");
  const std::uint64_t global_before = global.value();
  const std::uint64_t shard_before = shard.value();
  // Two instances on one node: one family, separate own counts.
  obs::FactCounter a(node, "test.fact.count");
  obs::FactCounter b(node, "test.fact.count");
  a.inc(3);
  b.inc();
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(global.value() - global_before, 4u);
  EXPECT_EQ(shard.value() - shard_before, 4u);
  // reset() zeroes the own count only.
  a.reset();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(global.value() - global_before, 4u);
  // A node-less fact moves its own count and the family.
  auto& fabric = obs::counter("test.fact.fabric");
  const std::uint64_t fabric_before = fabric.value();
  obs::FactCounter c("test.fact.fabric");
  c.inc(2);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(fabric.value() - fabric_before, 2u);
}

TEST(Gauge, SetAddAndConcurrentAdd) {
  auto& g = gauge("test.obs.gauge");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);

  g.reset();
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

TEST(Histogram, BucketBoundariesAreInclusiveUpper) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.n_buckets(), 4u);  // 3 finite + overflow

  h.observe(0.5);  // <= 1        -> bucket 0
  h.observe(1.0);  // == bound[0] -> bucket 0 (inclusive upper)
  h.observe(1.5);  // <= 2        -> bucket 1
  h.observe(2.0);  // == bound[1] -> bucket 1
  h.observe(3.0);  // <= 4        -> bucket 2
  h.observe(4.0);  // == bound[2] -> bucket 2
  h.observe(9.0);  // > 4         -> overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 9.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  // Contract pin (referenced from Histogram::quantile): an empty histogram
  // answers 0.0 for every q — never NaN, whose comparisons silently
  // evaluate false and would flip an SLO like "p99 < 0.1" to a failure
  // before the first observation.
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.count(), 0u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double value = h.quantile(q);
    EXPECT_EQ(value, value) << "NaN at q=" << q;  // NaN != NaN
    EXPECT_DOUBLE_EQ(value, 0.0) << "q=" << q;
  }
}

TEST(Histogram, QuantileInterpolatesLinearlyWithinBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram

  h.observe(0.5);  // bucket [0, 1]
  h.observe(1.5);  // bucket (1, 2]
  h.observe(1.7);  // bucket (1, 2]
  h.observe(3.0);  // bucket (2, 4]

  // rank = q * 4, walked through cumulative counts {1, 3, 4}:
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);    // rank 0: bucket-0 lower bound
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);   // rank 1: bucket-0 upper bound
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);    // rank 2: halfway into (1, 2]
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 2.0);   // rank 3: bucket-1 upper bound
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);    // rank 4: last finite bound

  // Out-of-range q clamps; overflow observations clamp to the last bound.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
  h.observe(100.0);  // +inf bucket
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, QuantileTracksExactQuantilesWithinBucketWidth) {
  // Property: against any sample set, the interpolated quantile is within
  // one bucket width of the exact order statistic. Deterministic LCG
  // samples over [0, 8) with unit-width buckets.
  Histogram h({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  std::vector<double> samples;
  std::uint64_t state = 42;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double x = 8.0 * static_cast<double>(state >> 11) /
                     static_cast<double>(1ULL << 53);
    samples.push_back(x);
    h.observe(x);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(q * samples.size());
    const double exact =
        samples[rank < samples.size() ? rank : samples.size() - 1];
    EXPECT_NEAR(h.quantile(q), exact, 1.0) << "q=" << q;
  }
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_ANY_THROW(Histogram({}));
  EXPECT_ANY_THROW(Histogram({1.0, 1.0}));
  EXPECT_ANY_THROW(Histogram({2.0, 1.0}));
}

TEST(Histogram, ExponentialBoundsFactory) {
  const auto bounds = Histogram::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(Histogram, RegistryBoundsOnlyApplyAtCreation) {
  auto& h = histogram("test.obs.hist", {1.0, 10.0});
  auto& again = histogram("test.obs.hist", {99.0});  // ignored: exists
  EXPECT_EQ(&h, &again);
  ASSERT_EQ(h.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h.bounds()[1], 10.0);
}

TEST(Tracer, TracedRegionsNestParentChild) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  EXPECT_EQ(Tracer::current_span(), 0u);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  double outer_seconds = 0.0;
  {
    Region outer(region_id<"test.obs.outer">(), kTraced);
    outer_id = outer.context().parent_span_id;
    EXPECT_EQ(Tracer::current_span(), outer_id);
    {
      const Region inner(region_id<"test.obs.inner">(), kTraced);
      inner_id = inner.context().parent_span_id;
      EXPECT_EQ(Tracer::current_span(), inner_id);
    }
    EXPECT_EQ(Tracer::current_span(), outer_id);
    // Region, span and caller share one elapsed reading.
    outer_seconds = outer.stop();
  }
  EXPECT_EQ(Tracer::current_span(), 0u);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first, so it is recorded first.
  EXPECT_EQ(spans[0].name, "test.obs.inner");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "test.obs.outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[1].duration_seconds, outer_seconds);
  EXPECT_GE(spans[1].duration_seconds, spans[0].duration_seconds);
  EXPECT_LE(spans[1].start_seconds, spans[0].start_seconds);
}

TEST(Tracer, UntracedRegionRecordsNoSpan) {
  Tracer::instance().clear();
  {
    Region region(region_id<"test.obs.untraced">());
    EXPECT_EQ(region.context().parent_span_id, Tracer::current_span());
    region.tag("ignored", "1");
  }
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST(Tracer, RingBufferOverwritesOldestAndCountsDrops) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record_span("s" + std::to_string(i), TraceContext{}, "",
                       ClockDomain::kSteady, 0.0, 0.0);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: the four most recent spans, in recording order.
  EXPECT_EQ(spans[0].name, "s6");
  EXPECT_EQ(spans[3].name, "s9");
}

TEST(EventLog, RingOverwritesOldestAndCountsDrops) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.name = "e" + std::to_string(i);
    log.log(std::move(e));
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "e6");  // oldest retained first
  EXPECT_EQ(events[3].name, "e9");
}

TEST(EventLog, FreeFunctionStampsAmbientTraceSpanAndNode) {
  EventLog::instance().clear();
  {
    const NodeScope node_scope("client7");
    const Region span(region_id<"test.obs.event.span">(), kTraced);
    event(Severity::kWarn, "test.obs.event",
          {{"key", "value"}, {"n", "3"}});
    const auto events = EventLog::instance().snapshot();
    ASSERT_EQ(events.size(), 1u);
    const Event& e = events[0];
    EXPECT_EQ(e.severity, Severity::kWarn);
    EXPECT_EQ(e.trace_id, span.context().trace_id);
    EXPECT_EQ(e.span_id, span.context().parent_span_id);
    EXPECT_EQ(e.node, "client7");
    EXPECT_GE(e.seconds, 0.0);
    ASSERT_EQ(e.fields.size(), 2u);
    EXPECT_EQ(e.fields[0].first, "key");
    EXPECT_EQ(e.fields[0].second, "value");
  }
  const std::string tail = EventLog::instance().dump_tail();
  EXPECT_NE(tail.find("flight recorder:"), std::string::npos);
  EXPECT_NE(tail.find("[warn]"), std::string::npos);
  EXPECT_NE(tail.find("test.obs.event"), std::string::npos);
  EXPECT_NE(tail.find("node=client7"), std::string::npos);
  EXPECT_NE(tail.find("key=value"), std::string::npos);
}

TEST(EventLog, DumpTailKeepsNewestEvents) {
  EventLog log(8);
  for (int i = 0; i < 8; ++i) {
    Event e;
    e.name = "tail" + std::to_string(i);
    log.log(std::move(e));
  }
  const std::string tail = log.dump_tail(2);
  EXPECT_EQ(tail.find("tail5"), std::string::npos);
  EXPECT_NE(tail.find("tail6"), std::string::npos);
  EXPECT_NE(tail.find("tail7"), std::string::npos);
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

TEST(Export, SnapshotJsonIsWellFormedAndContainsMetrics) {
  counter("test.obs.json.counter").inc(7);
  gauge("test.obs.json.gauge").set(-2.5);
  histogram("test.obs.json.hist", {1.0, 2.0}).observe(1.5);
  { const Region span(region_id<"test.obs.json.span">(), kTraced); }

  const std::string json = snapshot_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.obs.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

TEST(Export, TextDumpMentionsRegisteredNames) {
  counter("test.obs.dump.counter").inc();
  const std::string text = dump();
  EXPECT_NE(text.find("test.obs.dump.counter"), std::string::npos);
}

TEST(Export, SnapshotJsonIncludesCandidateCostsAndEventStats) {
  {
    CandidateScope scope("scaler/model");
    prefix_event(true);
    prefix_event(false);
  }
  CandidateCosts::instance().record_fold("scaler/model", 0.25);
  event(Severity::kInfo, "test.obs.export.event");

  const std::string json = snapshot_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"scaler/model\""), std::string::npos);
  EXPECT_NE(json.find("\"prefix_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
}

TEST(Export, TraceRingStatsAreExportedAsMetrics) {
  { const Region span(region_id<"test.obs.ringstats">(), kTraced); }
  EXPECT_GT(counter("obs.trace.recorded").value(), 0u);
  const std::string json = snapshot_json();
  EXPECT_NE(json.find("\"obs.trace.recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.trace.dropped\""), std::string::npos);
}

TEST(Obs, ResetAllClearsTracerEventsCostsAndIdSources) {
  { const Region span(region_id<"test.obs.resetall.span">(), kTraced); }
  event(Severity::kInfo, "test.obs.resetall.event");
  CandidateCosts::instance().record_fold("p", 0.1);
  ASSERT_FALSE(Tracer::instance().snapshot().empty());
  ASSERT_FALSE(EventLog::instance().snapshot().empty());
  ASSERT_FALSE(CandidateCosts::instance().snapshot().empty());

  reset_all();

  EXPECT_TRUE(Tracer::instance().snapshot().empty());
  EXPECT_EQ(Tracer::instance().recorded(), 0u);
  EXPECT_TRUE(Tracer::instance().anchors().empty());
  EXPECT_TRUE(EventLog::instance().snapshot().empty());
  EXPECT_TRUE(CandidateCosts::instance().snapshot().empty());
  // Span/trace id sources restart, so seeded replays get identical ids.
  const Region fresh(region_id<"test.obs.resetall.fresh">(), kTraced);
  EXPECT_EQ(fresh.context().parent_span_id, 1u);
  EXPECT_EQ(fresh.context().trace_id, 1u);
}

TEST(Registry, ResetZeroesButKeepsReferencesValid) {
  auto& c = counter("test.obs.reset");
  c.inc(41);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // reference still valid after reset
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &counter("test.obs.reset"));
}

}  // namespace
}  // namespace coda::obs
