// Deterministic chaos harness (DESIGN.md §9): runs cooperative graph
// searches — the Fig-3 tabular graph and the Fig-11 forecast graph — over a
// SimNet carrying a seeded fault schedule (message drops, latency spikes, a
// directed partition window, a client-crash window), and reports enough to
// assert the two chaos invariants:
//
//   (a) whenever every candidate's evaluation completes, the selected best
//       pipeline is identical to the fault-free run's, and
//   (b) cooperative non-overlap holds: local evaluations across clients
//       never exceed the candidate count (claims partition the space), and
//       abandoned/crashed claims are reclaimable by peers.
//
// Every stochastic decision derives from ChaosSchedule::seed through
// SimNet's per-link fault streams, so a failing schedule reproduces from
// the one-line describe() string a test prints on assertion failure.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/evaluator.h"
#include "src/darr/client.h"
#include "src/darr/sharded.h"
#include "src/dist/sim_net.h"
#include "src/obs/event_log.h"
#include "src/obs/trace.h"
#include "src/ts/forecast_graph.h"
#include "src/util/retry.h"

namespace coda::chaos {

/// One seeded fault schedule. Defaults are a fault-free fabric; tests
/// switch on the pieces a scenario needs. Windows are half-open intervals
/// on the SimNet logical clock, which only advances through retry backoff
/// — so a window starting at 0 is active from the first failed transfer
/// and heals once accumulated backoff walks the clock past its end.
struct ChaosSchedule {
  std::uint64_t seed = 1;
  double drop_probability = 0.0;
  double latency_spike_probability = 0.0;
  /// Directed partition between one client and every shard node (both
  /// directions), active while the clock is in the window.
  int partitioned_client = -1;  ///< client index; -1 = no partition
  double partition_start = 0.0;
  double partition_end = 0.0;
  /// Crash window for one client node (every transfer touching it fails).
  int crashed_client = -1;  ///< client index; -1 = no crash
  double crash_start = 0.0;
  double crash_end = 0.0;
  /// Repository tier shape (DESIGN.md §13): `n_shards` (>= 1) nodes by
  /// consistent hashing with `replication` copies per record. The default
  /// single shard is the paper's one repository.
  std::size_t n_shards = 1;
  std::size_t replication = 1;
  /// Crash window for one shard node: claims/stores whose serving owner
  /// falls inside the window fail over to the next replica on the ring.
  int crashed_shard = -1;  ///< shard index; -1 = no shard crash
  double shard_crash_start = 0.0;
  double shard_crash_end = 0.0;

  /// One-line reproduction string, printed by tests when an invariant
  /// fails so the schedule can be replayed verbatim.
  std::string describe() const {
    std::ostringstream out;
    out << "ChaosSchedule{seed=" << seed << ", drop=" << drop_probability
        << ", spike=" << latency_spike_probability;
    if (partitioned_client >= 0) {
      out << ", partition(client" << partitioned_client << ", ["
          << partition_start << ", " << partition_end << "))";
    }
    if (crashed_client >= 0) {
      out << ", crash(client" << crashed_client << ", [" << crash_start
          << ", " << crash_end << "))";
    }
    out << ", shards(" << n_shards << ", rf=" << replication << ")";
    if (crashed_shard >= 0) {
      out << ", crash(shard" << crashed_shard << ", [" << shard_crash_start
          << ", " << shard_crash_end << "))";
    }
    out << "}";
    return out.str();
  }
};

/// Retry tuning for chaos runs: a deep attempt budget so that at drop
/// probabilities <= 0.3 the chance of any single operation exhausting it
/// is ~0.3^12 ≈ 5e-7 — transient faults are absorbed and the cooperative
/// zero-redundancy invariant stays assertable. The backoff sum (~8.5
/// simulated seconds) also bounds the transient windows a schedule may
/// use if the run must heal through them.
inline RetryPolicy chaos_retry_policy(std::uint64_t seed) {
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff_seconds = 0.05;
  policy.multiplier = 2.0;
  policy.max_backoff_seconds = 1.0;
  policy.jitter_fraction = 0.1;
  policy.deadline_seconds = 20.0;
  policy.seed = seed;
  return policy;
}

/// The shared fabric of one chaos run: a sharded, replicated DarrCluster
/// (one shard by default) plus `n_clients` client nodes, with `schedule`
/// applied to the SimNet.
struct ChaosFabric {
  dist::SimNet net;
  darr::DarrCluster cluster;
  std::vector<dist::NodeId> client_nodes;
  std::vector<std::unique_ptr<darr::DarrClient>> clients;

  ChaosFabric(std::size_t n_clients, const ChaosSchedule& schedule)
      : cluster(&net,
                {.n_shards = schedule.n_shards,
                 .replication = schedule.replication,
                 .sync_retry = chaos_retry_policy(schedule.seed ^ 0x5eed)}) {
    dist::SimNet::FaultConfig faults;
    faults.seed = schedule.seed;
    faults.drop_probability = schedule.drop_probability;
    faults.latency_spike_probability = schedule.latency_spike_probability;
    net.set_faults(faults);
    for (std::size_t i = 0; i < n_clients; ++i) {
      const std::string name = "client" + std::to_string(i);
      const dist::NodeId node = net.add_node(name);
      client_nodes.push_back(node);
      const RetryPolicy retry = chaos_retry_policy(schedule.seed ^ (i + 1));
      clients.push_back(
          std::make_unique<darr::DarrClient>(&cluster, node, retry));
    }
    if (schedule.partitioned_client >= 0) {
      const dist::NodeId node =
          client_nodes.at(static_cast<std::size_t>(
              schedule.partitioned_client));
      for (std::size_t s = 0; s < cluster.n_shards(); ++s) {
        net.partition(node, cluster.node(s), schedule.partition_start,
                      schedule.partition_end);
        net.partition(cluster.node(s), node, schedule.partition_start,
                      schedule.partition_end);
      }
    }
    if (schedule.crashed_client >= 0) {
      net.crash_node(client_nodes.at(static_cast<std::size_t>(
                         schedule.crashed_client)),
                     schedule.crash_start, schedule.crash_end);
    }
    if (schedule.crashed_shard >= 0) {
      net.crash_node(
          cluster.node(static_cast<std::size_t>(schedule.crashed_shard)),
          schedule.shard_crash_start, schedule.shard_crash_end);
    }
  }
};

/// What a chaos run yields, shaped for invariant assertions.
struct ChaosRun {
  std::vector<EvaluationReport> reports;  ///< one per client
  std::size_t total_candidates = 0;
  std::size_t total_local_evaluations = 0;
  std::size_t redundant_evaluations = 0;
  /// Fold evaluations computed locally, summed across the fleet. Under a
  /// halving search with no faults this equals the rung plan's
  /// total_fold_evals() exactly — the fold-level zero-redundancy invariant
  /// (each (candidate, rung) unit is computed by exactly one claim
  /// winner; candidate-level `redundant_evaluations` does not apply when a
  /// candidate's rungs may legitimately split across clients).
  std::size_t total_fold_evaluations = 0;
  /// The per-client plan total (identical on every client).
  std::size_t fold_evaluations_planned = 0;
  darr::DarrRepository::Counters repository_counters;
  darr::DarrCluster::SyncStats sync_stats;  ///< zeros when replication == 1
  dist::SimNet::FaultStats fault_stats;
};

namespace detail {

/// Drives one evaluator callable per client concurrently (each client has
/// its own DarrClient, mirroring darr::run_cooperative_search) and folds
/// the per-client reports into a ChaosRun.
template <typename EvaluateFn>
ChaosRun run_clients(ChaosFabric& fabric, std::size_t n_candidates,
                     EvaluateFn evaluate) {
  const std::size_t n_clients = fabric.clients.size();
  ChaosRun run;
  run.total_candidates = n_candidates;
  run.reports.resize(n_clients);

  std::vector<std::thread> threads;
  threads.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    threads.emplace_back([&, i] {
      const obs::NodeScope node_scope(fabric.clients[i]->client_name());
      run.reports[i] = evaluate(*fabric.clients[i]);
    });
  }
  for (auto& t : threads) t.join();

  for (const auto& report : run.reports) {
    run.total_local_evaluations += report.evaluated_locally;
    run.total_fold_evaluations += report.fold_evaluations;
    run.fold_evaluations_planned = report.fold_evaluations_planned;
  }
  run.redundant_evaluations =
      run.total_local_evaluations > run.total_candidates
          ? run.total_local_evaluations - run.total_candidates
          : 0;
  run.repository_counters = fabric.cluster.counters();
  run.sync_stats = fabric.cluster.sync_stats();
  run.fault_stats = fabric.net.fault_stats();
  return run;
}

}  // namespace detail

/// Failure report for chaos assertions: the reproducible fault schedule
/// followed by the flight-recorder tail — every injected fault, retry
/// give-up, degradation and claim expiry leading up to the failure.
inline std::string flight_recorder_report(const ChaosSchedule& schedule,
                                          std::size_t tail = 64) {
  std::ostringstream out;
  out << "fault schedule: " << schedule.describe() << "\n"
      << obs::EventLog::instance().dump_tail(tail);
  return out.str();
}

/// Cooperative Fig-3-style tabular graph search under `schedule`.
/// `search` selects the racing strategy (default exhaustive; pass a
/// kHalving SearchOptions to race the same graph through the rung
/// scheduler — every client must use the same eta/seed or their rung keys
/// will not cooperate).
inline ChaosRun run_chaos_search(const TEGraph& graph, const Dataset& data,
                                 const CrossValidator& cv, Metric metric,
                                 std::size_t n_clients,
                                 const ChaosSchedule& schedule,
                                 const SearchOptions& search = {}) {
  ChaosFabric fabric(n_clients, schedule);
  return detail::run_clients(
      fabric, graph.enumerate_candidates().size(),
      [&](darr::DarrClient& client) {
        EvalOptions options;
        options.metric = metric;
        options.threads = 1;  // serial per client: attributable division
        options.cache = &client;
        options.search = search;
        return GraphEvaluator(options).evaluate(graph, data, *cv.clone());
      });
}

/// Cooperative Fig-11-style forecast graph search under `schedule`.
inline ChaosRun run_chaos_forecast_search(const ts::ForecastGraph& graph,
                                          const TimeSeries& series,
                                          const TimeSeriesSlidingSplit& cv,
                                          Metric metric,
                                          std::size_t n_clients,
                                          const ChaosSchedule& schedule,
                                          const SearchOptions& search = {}) {
  ChaosFabric fabric(n_clients, schedule);
  return detail::run_clients(
      fabric, graph.enumerate().size(), [&](darr::DarrClient& client) {
        EvalOptions options;
        options.metric = metric;
        options.threads = 1;
        options.cache = &client;
        options.search = search;
        return ts::ForecastGraphEvaluator(options).evaluate(graph, series,
                                                            cv);
      });
}

}  // namespace coda::chaos
