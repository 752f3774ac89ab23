#include "src/darr/cooperative.h"

#include <atomic>
#include <memory>
#include <thread>

#include "src/dist/telemetry.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/util/stopwatch.h"

namespace coda::darr {

CooperativeReport run_cooperative_fleet(std::size_t total_candidates,
                                        const FleetOptions& options,
                                        const ClientSession& session) {
  require(options.n_clients >= 1, "run_cooperative_fleet: need >= 1 client");
  require(options.n_shards >= 1, "run_cooperative_fleet: need >= 1 shard");
  const std::size_t n_clients = options.n_clients;

  dist::SimNet net;
  if (options.faults) net.set_faults(*options.faults);

  // Repository tier: a consistent-hash cluster of shard nodes (DESIGN.md
  // §13); each client reaches it through its own DarrClient.
  DarrCluster cluster(&net, {.n_shards = options.n_shards,
                             .replication = options.replication,
                             .sync_retry = options.retry});
  const dist::NodeId telemetry_node = net.add_node("telemetry");

  std::shared_ptr<obs::TelemetryCollector> collector;
  if (options.telemetry) {
    collector = std::make_shared<obs::TelemetryCollector>();
    for (const char* metric :
         {"eval.candidate.local", "eval.candidate.cached",
          "darr.client.lookups", "darr.client.hits", "darr.repo.store"}) {
      collector->track(metric);
    }
  }

  std::vector<std::unique_ptr<DarrClient>> clients;
  std::vector<std::unique_ptr<dist::TelemetryReporter>> reporters;
  clients.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    const std::string name = "client" + std::to_string(i);
    const dist::NodeId node = net.add_node(name);
    clients.push_back(
        std::make_unique<DarrClient>(&cluster, node, options.retry));
    if (collector) {
      // Each client ships its own MetricScope shard to the collector node.
      reporters.push_back(std::make_unique<dist::TelemetryReporter>(
          &net, node, telemetry_node, collector.get(),
          &obs::MetricScope::for_node(name).registry(), name));
    }
  }
  if (collector) {
    // The repository tier reports too: every shard.
    for (std::size_t s = 0; s < cluster.n_shards(); ++s) {
      const std::string& name = net.node_name(cluster.node(s));
      reporters.push_back(std::make_unique<dist::TelemetryReporter>(
          &net, cluster.node(s), telemetry_node, collector.get(),
          &obs::MetricScope::for_node(name).registry(), name));
    }
  }

  CooperativeReport report;
  report.total_candidates = total_candidates;
  report.n_shards = cluster.n_shards();
  report.replication = cluster.replication();
  report.clients.resize(n_clients);
  report.telemetry = collector;

  auto run_one = [&](std::size_t i) {
    // Spans from this thread (the evaluation root and everything under
    // it) belong to this simulated client's node.
    const obs::NodeScope node_scope(clients[i]->client_name());
    Stopwatch client_timer;
    ClientOutcome& outcome = report.clients[i];
    outcome.name = clients[i]->client_name();
    outcome.report = session(i, *clients[i]);
    outcome.evaluated_locally = outcome.report.evaluated_locally;
    outcome.served_from_cache = outcome.report.served_from_cache;
    outcome.seconds = client_timer.elapsed_seconds();
    // Ship this client's telemetry from its own thread: a deterministic
    // report point (end of evaluation) rather than a wall-clock timer,
    // so back-to-back runs send identical report counts. The profile
    // publish must precede the flush so the prof.* counters ride this
    // report; it writes the node shard and the process-wide registry in
    // equal increments (the describe_divergence invariant).
    if (collector) {
      obs::prof::publish_node(outcome.name);
      reporters[i]->flush();
    }
  };

  // The claim-wait histogram is process-wide and never reset here: this
  // run's p99 comes from its bucket delta, not from every run so far.
  const obs::Histogram& claim_wait = obs::histogram("eval.claim.wait_seconds");
  const std::vector<std::uint64_t> claim_wait_before =
      claim_wait.bucket_counts();

  // n_workers session threads pull client indices in order. One thread
  // per client (max_parallel_clients == 0) overlaps every session: the
  // original Fig-2 shape, and what the claim-contention metrics mean. One
  // thread runs the fleet serially — fully deterministic, which is what
  // exact bench entries need.
  Stopwatch wall;
  const std::size_t n_workers =
      options.max_parallel_clients == 0
          ? n_clients
          : std::min(options.max_parallel_clients, n_clients);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n_clients;
           i = next.fetch_add(1)) {
        run_one(i);
      }
    });
  }
  for (auto& t : workers) t.join();
  report.wall_seconds = wall.elapsed_seconds();

  if (collector) {
    // Final sweep from the coordinating thread: the repository tier's
    // shard(s) plus a catch-up flush for every client (a no-op when
    // nothing changed since the client's own report; a retransmission
    // when that report was lost). Publish any profile remainders first so
    // the catch-up flush carries them (e.g. scopes that closed between a
    // client's own publish and its session end).
    obs::prof::publish_all();
    for (auto& reporter : reporters) reporter->flush();
    report.telemetry_divergence = collector->describe_divergence(
        obs::snapshot_registry(obs::MetricsRegistry::instance()));
  }

  for (std::size_t i = 0; i < n_clients; ++i) {
    report.clients[i].darr_stats = clients[i]->stats();
    report.total_local_evaluations += report.clients[i].evaluated_locally;
    report.redundancy_avoided += report.clients[i].served_from_cache;
  }
  report.redundant_evaluations =
      report.total_local_evaluations > report.total_candidates
          ? report.total_local_evaluations - report.total_candidates
          : 0;
  report.repository_counters = cluster.counters();
  report.sync_stats = cluster.sync_stats();
  report.bytes_on_wire = net.total().bytes;
  std::vector<std::uint64_t> run_waits = claim_wait.bucket_counts();
  for (std::size_t b = 0; b < run_waits.size(); ++b) {
    run_waits[b] -= claim_wait_before[b];
  }
  report.claim_wait_p99_seconds =
      obs::quantile_from_buckets(claim_wait.bounds(), run_waits, 0.99);
  return report;
}

CooperativeReport run_cooperative_search(const TEGraph& graph,
                                         const Dataset& data,
                                         const CrossValidator& cv,
                                         Metric metric,
                                         std::size_t n_clients,
                                         std::size_t evaluator_threads) {
  FleetOptions options;
  options.n_clients = n_clients;
  options.evaluator_threads = evaluator_threads;
  return run_cooperative_search(graph, data, cv, metric, options);
}

CooperativeReport run_cooperative_search(const TEGraph& graph,
                                         const Dataset& data,
                                         const CrossValidator& cv,
                                         Metric metric,
                                         const FleetOptions& options) {
  return run_cooperative_fleet(
      graph.enumerate_candidates().size(), options,
      [&](std::size_t, ResultCache& cache) {
        EvalOptions eval;
        eval.metric = metric;
        eval.threads = options.evaluator_threads;
        eval.cache = &cache;
        return GraphEvaluator(eval).evaluate(graph, data, *cv.clone());
      });
}

CooperativeReport run_cooperative_forecast_search(
    const ts::ForecastGraph& graph, const TimeSeries& series,
    const TimeSeriesSlidingSplit& cv, Metric metric,
    const FleetOptions& options) {
  return run_cooperative_fleet(
      graph.enumerate().size(), options,
      [&](std::size_t, ResultCache& cache) {
        EvalOptions eval;
        eval.metric = metric;
        eval.threads = options.evaluator_threads;
        eval.cache = &cache;
        return ts::ForecastGraphEvaluator(eval).evaluate(graph, series, cv);
      });
}

}  // namespace coda::darr
