// Declarative SLO checks (DESIGN.md §12): thresholds over collected
// metrics, written in a one-line text syntax and evaluated against the
// telemetry the fleet actually reported (or the process-wide registry
// when no collector is bound):
//
//   "<metric> <stat> <cmp> <threshold>"
//   e.g.  "eval.claim.wait_seconds p99 < 0.5"
//         "net.fault.dropped rate < 100"
//         "darr.client.hits value >= 1"
//
// stats:  value (counter/gauge), count (histogram count or counter),
//         mean, p50, p95, p99 (histograms), rate (per-second change of a
//         counter-like metric, measured across evaluate() calls)
// cmps:   < <= > >=
//
// Results land in obs exports: `slo.evaluations` / `slo.violations`
// counters, `slo.checks.pass` / `slo.checks.fail` gauges, and a "slo"
// section in snapshot_json(). The text dashboard (telemetry_dashboard())
// renders the same results for humans.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/collector.h"
#include "src/obs/timeseries.h"

namespace coda::obs {

/// One parsed SLO check.
struct SloSpec {
  enum class Stat : std::uint8_t {
    kValue = 0,
    kCount,
    kMean,
    kP50,
    kP95,
    kP99,
    kRate,
  };
  enum class Cmp : std::uint8_t { kLt = 0, kLe, kGt, kGe };

  std::string metric;
  Stat stat = Stat::kValue;
  Cmp cmp = Cmp::kLt;
  double threshold = 0.0;
  std::string text;  ///< the original spec line
};

/// Parses the one-line syntax above; throws InvalidArgument on malformed
/// input (wrong token count, unknown stat/comparator, bad number).
SloSpec parse_slo(const std::string& text);

/// Outcome of one check at one evaluation.
struct SloResult {
  SloSpec spec;
  double observed = 0.0;
  bool evaluable = false;  ///< false = metric absent; not a violation
  bool pass = true;
};

/// The set of active SLO checks. Evaluation reads the bound
/// TelemetryCollector's fleet aggregate when one is bound (checks run
/// against *collected* telemetry, which rode the fault model), falling
/// back to the process-wide registry, per metric. Thread-safe.
class SloRegistry {
 public:
  /// The process-wide set used by exports; benches/tests add checks here.
  static SloRegistry& instance();

  void add(const SloSpec& spec);
  void add(const std::string& text) { add(parse_slo(text)); }

  /// Binds (or, with nullptr, unbinds) the fleet collector consulted
  /// first by evaluate(). The collector must outlive the binding.
  void bind_fleet(const TelemetryCollector* collector);

  /// Evaluates every check. `now` timestamps this round's rate samples
  /// (pass the SimNet logical clock); omitted, an internal tick counter
  /// advances by 1 per call. Updates slo.* counters/gauges and stores the
  /// results for results()/exports.
  std::vector<SloResult> evaluate(std::optional<double> now = std::nullopt);

  /// Results of the most recent evaluate() (empty before the first).
  std::vector<SloResult> results() const;

  std::size_t size() const;

  /// Drops every check, result, rate series, and the fleet binding.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SloSpec> specs_;
  std::vector<SloResult> latest_;
  const TelemetryCollector* fleet_ = nullptr;
  // Rate measurement: one series per rate-stat metric, sampled each
  // evaluation round.
  std::map<std::string, TimeSeries> rate_series_;
  double tick_ = 0.0;
};

/// Shorthand for SloRegistry::instance().
SloRegistry& global_slos();

/// Renders the human-readable telemetry dashboard (the `coda-telemetry`
/// view): fleet summary + tracked-series table from `collector` (may be
/// nullptr for the registry-only view), followed by a fresh SLO
/// evaluation. `top_k` bounds the per-metric node ranking.
std::string telemetry_dashboard(const TelemetryCollector* collector = nullptr,
                                std::size_t top_k = 3);

}  // namespace coda::obs
