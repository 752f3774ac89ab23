// Cooperative graph search (Fig 2), from a handful of clients up to
// thousand-client fleets: N clients, each with its own DarrClient bound to
// the shared repository tier — a DarrCluster (DESIGN.md §13), whose
// default single shard is the paper's one repository — concurrently
// evaluate the same graph on the same data set. Claims partition the
// candidate space; every client ends the run with the complete result set
// (its own computations plus everyone else's, read from the DARR).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cross_validation.h"
#include "src/core/evaluator.h"
#include "src/core/te_graph.h"
#include "src/darr/client.h"
#include "src/darr/sharded.h"
#include "src/data/dataset.h"
#include "src/obs/collector.h"
#include "src/ts/forecast_graph.h"

namespace coda::darr {

/// Per-client outcome of a cooperative run.
struct ClientOutcome {
  std::string name;
  std::size_t evaluated_locally = 0;
  std::size_t served_from_cache = 0;
  double seconds = 0.0;
  DarrClient::Stats darr_stats;
  EvaluationReport report;
};

/// Whole-run outcome.
struct CooperativeReport {
  std::vector<ClientOutcome> clients;
  std::size_t total_candidates = 0;
  std::size_t total_local_evaluations = 0;  ///< across clients
  std::size_t redundant_evaluations = 0;    ///< local evals beyond the
                                            ///< candidate count (0 = perfect
                                            ///< cooperation)
  /// Candidate evaluations served from a peer's stored result instead of
  /// recomputed — the paper's headline quantity, summed over clients.
  std::size_t redundancy_avoided = 0;
  double wall_seconds = 0.0;
  /// Repository tier shape (replication as clamped to n_shards).
  std::size_t n_shards = 1;
  std::size_t replication = 1;
  /// Every byte the fabric carried (client ops + replica syncs +
  /// telemetry), from SimNet's deterministic accounting.
  std::size_t bytes_on_wire = 0;
  /// p99 of eval.claim.wait_seconds over this run's observations across
  /// the fleet: the claim-contention price of waiting on a peer's
  /// in-flight computation.
  double claim_wait_p99_seconds = 0.0;
  DarrRepository::Counters repository_counters;  ///< summed over shards
  DarrCluster::SyncStats sync_stats;  ///< zeros when replication == 1
  /// Fleet telemetry collected during the run: every client (and the
  /// repository tier) shipped its MetricScope shard to a dedicated
  /// "telemetry" SimNet node as snapshot deltas; per-node aggregates and
  /// tracked series live here. Null when FleetOptions::telemetry is off.
  std::shared_ptr<obs::TelemetryCollector> telemetry;
  /// Result of comparing the collector's fleet aggregate against the
  /// process-wide registry after the final flush — empty on a fault-free
  /// run (the fleet sum reproduces the global counts bit-for-bit).
  std::string telemetry_divergence;
};

/// Fleet topology and pacing for run_cooperative_fleet().
struct FleetOptions {
  std::size_t n_clients = 1;
  std::size_t evaluator_threads = 1;
  /// Repository shards (>= 1): the repository spans that many nodes by
  /// consistent hashing with `replication` copies per record (clamped to
  /// n_shards). The default single shard is the paper's one repository.
  std::size_t n_shards = 1;
  std::size_t replication = 2;
  /// Session threads, each pulling the next client index; 0 = one thread
  /// per client (small fleets). Thousand-client fleets set a bound; 1
  /// runs the sessions serially in client order, which makes the whole
  /// run — byte counts included — deterministic for exact bench entries.
  /// The sessions' searches share the process-wide executor.
  std::size_t max_parallel_clients = 0;
  /// Ship per-node MetricScope shards to a collector node. Telemetry is
  /// traffic too: switch it off when asserting exact bytes-on-wire.
  bool telemetry = true;
  /// Optional seeded fault model applied to the fabric (chaos runs).
  std::optional<dist::SimNet::FaultConfig> faults;
  /// Transfer budget for client ops and replica syncs.
  RetryPolicy retry = {};
};

/// One client's evaluation session: given the client index and its
/// ResultCache, run the search and return the report.
using ClientSession =
    std::function<EvaluationReport(std::size_t client, ResultCache& cache)>;

/// Runs `options.n_clients` cooperative sessions against one repository
/// tier and folds the outcomes into a CooperativeReport.
CooperativeReport run_cooperative_fleet(std::size_t total_candidates,
                                        const FleetOptions& options,
                                        const ClientSession& session);

/// Runs `n_clients` cooperative searches of `graph` over `data`
/// concurrently (one thread per client, each client evaluating serially so
/// the division of labour is attributable). `evaluator_threads` sets each
/// client's internal parallelism.
CooperativeReport run_cooperative_search(const TEGraph& graph,
                                         const Dataset& data,
                                         const CrossValidator& cv,
                                         Metric metric, std::size_t n_clients,
                                         std::size_t evaluator_threads = 1);

/// Fleet-shaped variant of the tabular search (sharding, bounded client
/// parallelism, faults — everything FleetOptions can express).
CooperativeReport run_cooperative_search(const TEGraph& graph,
                                         const Dataset& data,
                                         const CrossValidator& cv,
                                         Metric metric,
                                         const FleetOptions& options);

/// Cooperative Fig-11 forecast search across a fleet.
CooperativeReport run_cooperative_forecast_search(
    const ts::ForecastGraph& graph, const TimeSeries& series,
    const TimeSeriesSlidingSplit& cv, Metric metric,
    const FleetOptions& options);

}  // namespace coda::darr
