#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/obs/json.h"
#include "src/obs/obs.h"
#include "src/util/error.h"

namespace coda::obs {

namespace {

using detail::json_escape;
using detail::json_number;

void append_histogram_json(std::ostringstream& out, const Histogram& h) {
  out << "{\"count\":" << h.count() << ",\"sum\":" << json_number(h.sum())
      << ",\"buckets\":[";
  for (std::size_t i = 0; i < h.n_buckets(); ++i) {
    if (i > 0) out << ',';
    const bool overflow = i == h.bounds().size();
    out << "{\"le\":"
        << (overflow ? std::string("\"inf\"") : json_number(h.bounds()[i]))
        << ",\"count\":" << h.bucket_count(i) << '}';
  }
  out << "]}";
}

void append_tags_json(std::ostringstream& out, const SpanRecord& s) {
  out << '{';
  bool first = true;
  for (const auto& [key, value] : s.tags) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  out << '}';
}

/// CODA_*_DUMP convention: unset/""/"0" = no-op, "1" = print to stdout,
/// anything else = a file path. `render` is only called when dumping.
template <typename Render>
void env_dump(const char* env_name, const char* banner, Render render) {
  const char* value = std::getenv(env_name);
  if (value == nullptr || value[0] == '\0' ||
      (value[0] == '0' && value[1] == '\0')) {
    return;
  }
  const std::string payload = render();
  if (value[0] == '1' && value[1] == '\0') {
    std::printf("\n--- %s ---\n%s\n", banner, payload.c_str());
    return;
  }
  std::ofstream file(value);
  require(file.good(), std::string("obs: cannot open dump path '") + value +
                           "' (" + env_name + ")");
  file << payload << '\n';
}

}  // namespace

std::string snapshot_json(std::size_t max_spans) {
  auto& registry = MetricsRegistry::instance();
  auto& tracer = Tracer::instance();
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.counter_values()) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.gauge_values()) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << json_number(value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : registry.histogram_views()) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":";
    append_histogram_json(out, *histogram);
  }
  out << "},\"candidates\":{";
  first = true;
  for (const auto& [path, cost] : CandidateCosts::instance().snapshot()) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(path) << "\":{\"folds\":" << cost.folds
        << ",\"fold_seconds\":" << json_number(cost.fold_seconds)
        << ",\"prefix_hits\":" << cost.prefix_hits
        << ",\"prefix_misses\":" << cost.prefix_misses
        << ",\"cached\":" << cost.cached
        << ",\"prepare_seconds\":" << json_number(cost.prepare_seconds)
        << ",\"fit_seconds\":" << json_number(cost.fit_seconds)
        << ",\"score_seconds\":" << json_number(cost.score_seconds)
        << ",\"claim_wait_seconds\":" << json_number(cost.claim_wait_seconds)
        << ",\"pruned_at_rung\":" << cost.pruned_at_rung << '}';
  }
  out << "},\"events\":{\"recorded\":" << EventLog::instance().recorded()
      << ",\"dropped\":" << EventLog::instance().dropped()
      << "},\"spans\":{\"recorded\":" << tracer.recorded()
      << ",\"dropped\":" << tracer.dropped() << ",\"recent\":[";
  const auto spans = tracer.snapshot();
  const std::size_t start =
      spans.size() > max_spans ? spans.size() - max_spans : 0;
  for (std::size_t i = start; i < spans.size(); ++i) {
    if (i > start) out << ',';
    const auto& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent_id
        << ",\"trace\":" << s.trace_id << ",\"name\":\""
        << json_escape(s.name) << "\",\"node\":\"" << json_escape(s.node)
        << "\",\"clock\":\""
        << (s.clock == ClockDomain::kLogical ? "logical" : "steady")
        << "\",\"start\":" << json_number(s.start_seconds)
        << ",\"dur\":" << json_number(s.duration_seconds) << ",\"tags\":";
    append_tags_json(out, s);
    out << '}';
  }
  // Per-node MetricScope shards (fleet telemetry, DESIGN.md §12): node
  // names and metric names both iterate sorted, so the export is
  // byte-deterministic across identical runs.
  out << "]},\"nodes\":{";
  first = true;
  for (const auto& node : MetricScope::nodes()) {
    const MetricScope* scope = MetricScope::find(node);
    if (scope == nullptr) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(node) << "\":{\"counters\":{";
    bool inner = true;
    for (const auto& [name, value] : scope->registry().counter_values()) {
      if (!inner) out << ',';
      inner = false;
      out << '"' << json_escape(name) << "\":" << value;
    }
    out << "},\"gauges\":{";
    inner = true;
    for (const auto& [name, value] : scope->registry().gauge_values()) {
      if (!inner) out << ',';
      inner = false;
      out << '"' << json_escape(name) << "\":" << json_number(value);
    }
    out << "},\"histograms\":{";
    inner = true;
    for (const auto& [name, histogram] : scope->registry().histogram_views()) {
      if (!inner) out << ',';
      inner = false;
      out << '"' << json_escape(name) << "\":";
      append_histogram_json(out, *histogram);
    }
    out << "}}";
  }
  // Last SLO evaluation (callers run global_slos().evaluate() themselves:
  // rendering a snapshot must not mutate the metrics it snapshots).
  out << "},\"slo\":[";
  first = true;
  for (const auto& r : global_slos().results()) {
    if (!first) out << ',';
    first = false;
    out << "{\"check\":\"" << json_escape(r.spec.text) << "\",\"observed\":";
    if (r.evaluable) {
      out << json_number(r.observed);
    } else {
      out << "null";
    }
    out << ",\"pass\":" << (r.evaluable && r.pass ? "true" : "false") << '}';
  }
  out << "]}";
  return out.str();
}

std::string dump() {
  auto& registry = MetricsRegistry::instance();
  auto& tracer = Tracer::instance();
  std::ostringstream out;
  out << "== counters ==\n";
  for (const auto& [name, value] : registry.counter_values()) {
    out << "  " << name << " = " << value << '\n';
  }
  out << "== gauges ==\n";
  for (const auto& [name, value] : registry.gauge_values()) {
    out << "  " << name << " = " << json_number(value) << '\n';
  }
  out << "== histograms ==\n";
  for (const auto& [name, histogram] : registry.histogram_views()) {
    out << "  " << name << ": count=" << histogram->count()
        << " sum=" << json_number(histogram->sum());
    if (histogram->count() > 0) {
      out << " mean="
          << json_number(histogram->sum() /
                         static_cast<double>(histogram->count()))
          << " p50=" << json_number(histogram->quantile(0.50))
          << " p95=" << json_number(histogram->quantile(0.95))
          << " p99=" << json_number(histogram->quantile(0.99));
    }
    out << '\n';
    for (std::size_t i = 0; i < histogram->n_buckets(); ++i) {
      const std::uint64_t n = histogram->bucket_count(i);
      if (n == 0) continue;
      out << "    le ";
      if (i == histogram->bounds().size()) {
        out << "+inf";
      } else {
        out << json_number(histogram->bounds()[i]);
      }
      out << ": " << n << '\n';
    }
  }
  out << "== candidates ==\n";
  for (const auto& [path, cost] : CandidateCosts::instance().snapshot()) {
    out << "  " << path << ": folds=" << cost.folds
        << " fold_seconds=" << json_number(cost.fold_seconds)
        << " prefix_hits=" << cost.prefix_hits
        << " prefix_misses=" << cost.prefix_misses
        << " cached=" << cost.cached
        << " prepare=" << json_number(cost.prepare_seconds)
        << " fit=" << json_number(cost.fit_seconds)
        << " score=" << json_number(cost.score_seconds)
        << " claim_wait=" << json_number(cost.claim_wait_seconds)
        << " pruned_at_rung=" << cost.pruned_at_rung << '\n';
  }
  out << "== spans ==\n  recorded=" << tracer.recorded()
      << " dropped=" << tracer.dropped() << '\n'
      << "== events ==\n  recorded=" << EventLog::instance().recorded()
      << " dropped=" << EventLog::instance().dropped() << '\n';
  return out.str();
}

void dump_if_env() {
  env_dump("CODA_METRICS_DUMP", "coda metrics snapshot",
           [] { return snapshot_json(); });
  trace_dump_if_env();
  env_dump("CODA_PROFILE_DUMP", "coda folded profile",
           [] { return prof::folded(); });
}

void trace_dump_if_env() {
  env_dump("CODA_TRACE_DUMP", "coda chrome trace",
           [] { return export_chrome_trace(); });
}

void reset_all() {
  MetricsRegistry::instance().reset();
  MetricScope::reset_values();
  Tracer::instance().clear();
  EventLog::instance().clear();
  CandidateCosts::instance().reset();
  prof::reset();
  global_slos().clear();
}

}  // namespace coda::obs
