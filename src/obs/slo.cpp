#include "src/obs/slo.h"

#include <sstream>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/error.h"

namespace coda::obs {

namespace {

const char* stat_name(SloSpec::Stat stat) {
  switch (stat) {
    case SloSpec::Stat::kValue: return "value";
    case SloSpec::Stat::kCount: return "count";
    case SloSpec::Stat::kMean: return "mean";
    case SloSpec::Stat::kP50: return "p50";
    case SloSpec::Stat::kP95: return "p95";
    case SloSpec::Stat::kP99: return "p99";
    case SloSpec::Stat::kRate: return "rate";
  }
  return "?";
}

const char* cmp_name(SloSpec::Cmp cmp) {
  switch (cmp) {
    case SloSpec::Cmp::kLt: return "<";
    case SloSpec::Cmp::kLe: return "<=";
    case SloSpec::Cmp::kGt: return ">";
    case SloSpec::Cmp::kGe: return ">=";
  }
  return "?";
}

bool compare(double observed, SloSpec::Cmp cmp, double threshold) {
  switch (cmp) {
    case SloSpec::Cmp::kLt: return observed < threshold;
    case SloSpec::Cmp::kLe: return observed <= threshold;
    case SloSpec::Cmp::kGt: return observed > threshold;
    case SloSpec::Cmp::kGe: return observed >= threshold;
  }
  return false;
}

/// Histogram state a check can be computed from, whichever source it was
/// probed out of.
struct HistProbe {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// The raw material for one metric: at most one of these is filled.
struct MetricProbe {
  std::optional<double> scalar;  // counter (as double) or gauge
  std::optional<HistProbe> hist;
};

MetricProbe probe_fleet(const MetricsSnapshot& fleet,
                        const std::string& metric) {
  MetricProbe out;
  if (const auto c = fleet.counters.find(metric); c != fleet.counters.end()) {
    out.scalar = static_cast<double>(c->second);
    return out;
  }
  if (const auto g = fleet.gauges.find(metric); g != fleet.gauges.end()) {
    out.scalar = g->second;
    return out;
  }
  if (const auto h = fleet.histograms.find(metric);
      h != fleet.histograms.end()) {
    out.hist = HistProbe{h->second.bounds, h->second.buckets, h->second.count,
                         h->second.sum};
  }
  return out;
}

MetricProbe probe_registry(const std::string& metric) {
  MetricProbe out;
  auto& registry = MetricsRegistry::instance();
  if (const auto c = registry.find_counter(metric); c.has_value()) {
    out.scalar = static_cast<double>(*c);
    return out;
  }
  if (const auto g = registry.find_gauge(metric); g.has_value()) {
    out.scalar = *g;
    return out;
  }
  if (const Histogram* h = registry.find_histogram(metric); h != nullptr) {
    HistProbe hp;
    hp.bounds = h->bounds();
    hp.buckets = h->bucket_counts();
    hp.count = h->count();
    hp.sum = h->sum();
    out.hist = std::move(hp);
  }
  return out;
}

}  // namespace

SloSpec parse_slo(const std::string& text) {
  std::istringstream in(text);
  std::string metric, stat, cmp, threshold, extra;
  in >> metric >> stat >> cmp >> threshold;
  require(!threshold.empty() && !(in >> extra),
          "parse_slo: expected '<metric> <stat> <cmp> <threshold>', got '" +
              text + "'");

  SloSpec spec;
  spec.metric = metric;
  spec.text = text;

  if (stat == "value") {
    spec.stat = SloSpec::Stat::kValue;
  } else if (stat == "count") {
    spec.stat = SloSpec::Stat::kCount;
  } else if (stat == "mean") {
    spec.stat = SloSpec::Stat::kMean;
  } else if (stat == "p50") {
    spec.stat = SloSpec::Stat::kP50;
  } else if (stat == "p95") {
    spec.stat = SloSpec::Stat::kP95;
  } else if (stat == "p99") {
    spec.stat = SloSpec::Stat::kP99;
  } else if (stat == "rate") {
    spec.stat = SloSpec::Stat::kRate;
  } else {
    throw InvalidArgument("parse_slo: unknown stat '" + stat + "' in '" +
                          text + "'");
  }

  if (cmp == "<") {
    spec.cmp = SloSpec::Cmp::kLt;
  } else if (cmp == "<=") {
    spec.cmp = SloSpec::Cmp::kLe;
  } else if (cmp == ">") {
    spec.cmp = SloSpec::Cmp::kGt;
  } else if (cmp == ">=") {
    spec.cmp = SloSpec::Cmp::kGe;
  } else {
    throw InvalidArgument("parse_slo: unknown comparator '" + cmp + "' in '" +
                          text + "'");
  }

  try {
    std::size_t consumed = 0;
    spec.threshold = std::stod(threshold, &consumed);
    require(consumed == threshold.size(), "trailing characters");
  } catch (const std::exception&) {
    throw InvalidArgument("parse_slo: bad threshold '" + threshold + "' in '" +
                          text + "'");
  }
  return spec;
}

SloRegistry& SloRegistry::instance() {
  static SloRegistry registry;
  return registry;
}

SloRegistry& global_slos() { return SloRegistry::instance(); }

void SloRegistry::add(const SloSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_.push_back(spec);
}

void SloRegistry::bind_fleet(const TelemetryCollector* collector) {
  std::lock_guard<std::mutex> lock(mutex_);
  fleet_ = collector;
}

std::vector<SloResult> SloRegistry::evaluate(std::optional<double> now) {
  std::vector<SloResult> results;
  std::uint64_t violations = 0;
  std::uint64_t evaluated = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tick_ += 1.0;
    const double t = now.value_or(tick_);
    // One fleet snapshot per round so every check sees the same instant.
    const MetricsSnapshot fleet =
        fleet_ != nullptr ? fleet_->fleet() : MetricsSnapshot{};

    results.reserve(specs_.size());
    for (const SloSpec& spec : specs_) {
      SloResult result;
      result.spec = spec;

      MetricProbe probe =
          fleet_ != nullptr ? probe_fleet(fleet, spec.metric) : MetricProbe{};
      if (!probe.scalar.has_value() && !probe.hist.has_value()) {
        probe = probe_registry(spec.metric);
      }

      std::optional<double> observed;
      switch (spec.stat) {
        case SloSpec::Stat::kValue:
          observed = probe.scalar;
          break;
        case SloSpec::Stat::kCount:
          if (probe.hist.has_value()) {
            observed = static_cast<double>(probe.hist->count);
          } else {
            observed = probe.scalar;
          }
          break;
        case SloSpec::Stat::kMean:
          if (probe.hist.has_value() && probe.hist->count > 0) {
            observed =
                probe.hist->sum / static_cast<double>(probe.hist->count);
          }
          break;
        case SloSpec::Stat::kP50:
        case SloSpec::Stat::kP95:
        case SloSpec::Stat::kP99:
          if (probe.hist.has_value()) {
            const double q = spec.stat == SloSpec::Stat::kP50   ? 0.50
                             : spec.stat == SloSpec::Stat::kP95 ? 0.95
                                                                : 0.99;
            observed =
                quantile_from_buckets(probe.hist->bounds, probe.hist->buckets, q);
          }
          break;
        case SloSpec::Stat::kRate: {
          std::optional<double> level = probe.scalar;
          if (!level.has_value() && probe.hist.has_value()) {
            level = static_cast<double>(probe.hist->count);
          }
          if (level.has_value()) {
            auto it = rate_series_.find(spec.metric);
            if (it == rate_series_.end()) {
              it = rate_series_.emplace(spec.metric, TimeSeries(64)).first;
            }
            it->second.sample(t, *level);
            observed = it->second.rate_per_second();
          }
          break;
        }
      }

      if (observed.has_value()) {
        result.evaluable = true;
        result.observed = *observed;
        result.pass = compare(*observed, spec.cmp, spec.threshold);
        ++evaluated;
        if (!result.pass) ++violations;
      }
      results.push_back(std::move(result));
    }
    latest_ = results;
  }

  // Registry writes happen outside our lock (the exporter calls us while
  // walking the registry; same-order locking avoids surprises).
  static auto& evaluations_counter = counter("slo.evaluations");
  static auto& violations_counter = counter("slo.violations");
  evaluations_counter.inc(evaluated);
  violations_counter.inc(violations);
  gauge("slo.checks.pass")
      .set(static_cast<double>(evaluated - violations));
  gauge("slo.checks.fail").set(static_cast<double>(violations));
  return results;
}

std::vector<SloResult> SloRegistry::results() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latest_;
}

std::size_t SloRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return specs_.size();
}

void SloRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  specs_.clear();
  latest_.clear();
  rate_series_.clear();
  fleet_ = nullptr;
  tick_ = 0.0;
}

std::string telemetry_dashboard(const TelemetryCollector* collector,
                                std::size_t top_k) {
  using detail::json_number;
  std::ostringstream out;
  out << "== coda telemetry ==\n";

  if (collector != nullptr) {
    const auto nodes = collector->nodes();
    out << "fleet: " << nodes.size() << " node(s), "
        << collector->reports_ingested() << " report(s) ingested\n";
    for (const std::string& metric : collector->tracked()) {
      const auto fleet_series = collector->series("", metric);
      out << "  " << metric << ':';
      if (fleet_series.has_value() && !fleet_series->empty()) {
        out << " fleet=" << json_number(fleet_series->latest().value)
            << " rate=" << json_number(fleet_series->rate_per_second())
            << "/s";
      } else {
        out << " (no samples)";
      }
      const auto ranked = collector->top_k(metric, top_k);
      if (!ranked.empty()) {
        out << " top:";
        for (const auto& [node, value] : ranked) {
          out << ' ' << node << '=' << json_number(value);
        }
      }
      out << '\n';
    }
    out << "== nodes ==\n";
    for (const std::string& node : nodes) {
      const MetricsSnapshot snap = collector->node_snapshot(node);
      out << "  " << node << ": counters=" << snap.counters.size()
          << " gauges=" << snap.gauges.size()
          << " histograms=" << snap.histograms.size() << '\n';
    }
    // Fleet hot-path table (ISSUE 9): published prof.* counters, ranked
    // by the profiler's deterministic (calls desc, region asc) order.
    const auto hot = collector->hot_paths(top_k * 4);
    if (!hot.empty()) {
      out << "== hot paths (fleet) ==\n";
      for (const auto& row : hot) {
        out << "  " << row.region << ": calls=" << row.calls
            << " self=" << json_number(row.self_seconds) << "s\n";
      }
    }
  } else {
    out << "fleet: (no collector bound; registry-only view)\n";
  }

  out << "== slo ==\n";
  const auto results = global_slos().evaluate();
  if (results.empty()) out << "  (no checks registered)\n";
  for (const SloResult& r : results) {
    const char* verdict = !r.evaluable ? " n/a" : r.pass ? "PASS" : "FAIL";
    out << "  [" << verdict << "] " << r.spec.metric << ' '
        << stat_name(r.spec.stat) << ' ' << cmp_name(r.spec.cmp) << ' '
        << json_number(r.spec.threshold);
    if (r.evaluable) {
      out << "  (observed " << json_number(r.observed) << ')';
    } else {
      out << "  (metric absent)";
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace coda::obs
