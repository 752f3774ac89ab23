// The benchmark's workloads. Each one builds its inputs from the workload
// seed, runs one search at a time (a closed loop), checks every search
// against a reference answer computed by a path that shares no scheduling
// with the measured one, and — in the traced run — replays the search's
// work layer by layer from the benchmark's own code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// The answer a search elected: the winner and its fold scores.
struct Answer {
  std::string spec;
  std::vector<double> fold_scores;
};

/// What one search returned, plus what the checks and metrics need.
struct SearchOutcome {
  double seconds = 0.0;
  std::string error;            ///< the search threw
  std::vector<Answer> answers;  ///< one per client (one for local search)
  std::size_t redundant_evaluations = 0;
  std::size_t fold_evaluations = 0;  ///< computed locally, fleet-wide
  std::size_t fold_evaluations_planned = 0;
  std::size_t pruned = 0;
  // Fleet only.
  std::vector<double> client_seconds;
  std::vector<double> claim_waits;  ///< candidates that waited on a claim
  std::size_t redundancy_avoided = 0;
  std::size_t bytes_on_wire = 0;
  std::size_t sync_bytes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and builds the graph. Called several times (the
  /// last build is kept) so set-up time is a median, not one sample.
  virtual void setup() = 0;

  /// Computes the reference answer (excluded from set-up time).
  virtual void compute_reference() = 0;
  virtual const Answer& reference() const = 0;

  /// Runs one search. `traced` installs the benchmark's own decorators
  /// where the workload has a hook for them (the fleet's ResultCache);
  /// elsewhere the traced search is the plain search.
  virtual SearchOutcome search(bool traced) = 0;

  /// Worker threads the searches' engine pools have in total (the
  /// denominator of pool utilization).
  virtual std::size_t pool_threads() const = 0;

  /// Per-layer metrics from the replay and the decorators. Returns a
  /// non-empty message when a replay check fails.
  virtual std::string trace_layers(Report& report) = 0;
};

/// True when both vectors hold the same doubles bit for bit.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// Checks one search against the reference; empty when correct.
std::string check_outcome(const SearchOutcome& outcome, const Answer& ref);

std::unique_ptr<Workload> make_forecast_fit(std::uint64_t seed,
                                            std::size_t threads);
std::unique_ptr<Workload> make_forecast_prepare(std::uint64_t seed,
                                                std::size_t threads);
std::unique_ptr<Workload> make_coop_fleet(std::uint64_t seed,
                                          std::size_t threads);

/// Per-layer probe shared by every workload: GEMM rates at the shapes the
/// neural fits emit, each from calls the benchmark itself timed.
void probe_gemm_rates(Report& report);

/// Derives an independent 64-bit seed for one input from the workload seed.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in report order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric the traced run reports, in report order.
const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
