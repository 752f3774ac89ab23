// coop_fleet: a 64-client cooperative search of the Fig-2 tabular graph over
// a 4-shard, rf=2 DarrCluster, fault-free, telemetry off, clients in waves
// of min(4, nproc). One search is one whole fleet run.
//
// The traced fleet runs the same sessions as darr::run_cooperative_search
// through darr::run_cooperative_fleet, with each client's ResultCache
// wrapped in a TimedCache. The traced replay fits one fold of every
// candidate's Pipeline on one thread.
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "layer_timers.h"
#include "src/core/metrics.h"
#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"
#include "src/obs/metrics.h"
#include "src/util/stopwatch.h"
#include "workload.h"

namespace perfbench {
namespace {

using coda::EvalOptions;
using coda::EvaluationReport;
using coda::Stopwatch;
namespace darr = coda::darr;

constexpr std::size_t kClients = 64;
constexpr std::size_t kFolds = 5;

std::string estimator_family(const std::string& name) {
  if (name.find("forest") != std::string::npos) return "random_forest";
  if (name.find("tree") != std::string::npos) return "decision_tree";
  if (name.find("knn") != std::string::npos) return "knn";
  if (name.find("linear") != std::string::npos) return "linear";
  return "other";
}

class CoopFleetWorkload final : public Workload {
 public:
  CoopFleetWorkload(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  void setup() override {
    coda::RegressionConfig cfg;
    cfg.n_samples = 300;
    cfg.n_features = 8;
    cfg.seed = derive_seed(seed_, 1);
    data_ = coda::make_regression(cfg);
    graph_ = std::make_unique<coda::TEGraph>();
    std::vector<std::unique_ptr<coda::Transformer>> scalers;
    scalers.push_back(std::make_unique<coda::StandardScaler>());
    scalers.push_back(std::make_unique<coda::RobustScaler>());
    scalers.push_back(std::make_unique<coda::MinMaxScaler>());
    scalers.push_back(std::make_unique<coda::NoOp>());
    graph_->add_feature_scalers(std::move(scalers));
    std::vector<std::unique_ptr<coda::Estimator>> models;
    models.push_back(std::make_unique<coda::LinearRegression>());
    models.push_back(std::make_unique<coda::DecisionTreeRegressor>());
    models.push_back(std::make_unique<coda::RandomForestRegressor>());
    models.push_back(std::make_unique<coda::KnnRegressor>());
    graph_->add_regression_models(std::move(models));
  }

  void compute_reference() override {
    // A single-client local search: no DARR, no fleet scheduling.
    EvalOptions options;
    options.metric = coda::Metric::kRmse;
    options.threads = 1;
    reference_report_ = coda::GraphEvaluator(options).evaluate(
        *graph_, data_, coda::KFold(kFolds));
    reference_ = Answer{reference_report_.best().spec,
                        reference_report_.best().fold_scores};
  }

  const Answer& reference() const override { return reference_; }

  SearchOutcome search(bool traced) override {
    SearchOutcome out;
    Stopwatch timer;
    try {
      const darr::CooperativeReport report =
          traced ? traced_fleet() : darr::run_cooperative_search(
                                        *graph_, data_, coda::KFold(kFolds),
                                        coda::Metric::kRmse, fleet_options());
      out.seconds = timer.elapsed_seconds();
      out.redundant_evaluations = report.redundant_evaluations;
      out.redundancy_avoided = report.redundancy_avoided;
      out.bytes_on_wire = report.bytes_on_wire;
      out.sync_bytes = report.sync_stats.bytes_shipped;
      for (const auto& client : report.clients) {
        out.answers.push_back(Answer{client.report.best().spec,
                                     client.report.best().fold_scores});
        out.client_seconds.push_back(client.seconds);
        out.fold_evaluations += client.report.fold_evaluations;
        for (const auto& r : client.report.results) {
          if (r.claim_wait_seconds > 0.0) {
            out.claim_waits.push_back(r.claim_wait_seconds);
          }
        }
      }
      if (!report.clients.empty()) {
        out.fold_evaluations_planned =
            report.clients.front().report.fold_evaluations_planned;
      }
    } catch (const std::exception& e) {
      out.seconds = timer.elapsed_seconds();
      out.error = e.what();
    }
    return out;
  }

  std::size_t pool_threads() const override {
    return threads_ * std::min(threads_, kClients);
  }

  std::string trace_layers(Report& report) override;

 private:
  darr::FleetOptions fleet_options() const {
    darr::FleetOptions options;
    options.n_clients = kClients;
    options.evaluator_threads = threads_;
    options.n_shards = 4;
    options.replication = 2;
    options.max_parallel_clients = threads_;
    options.telemetry = false;
    return options;
  }

  /// run_cooperative_search's sessions, with the client's cache timed.
  darr::CooperativeReport traced_fleet() {
    ++traced_fleets_;
    const coda::KFold cv(kFolds);
    return darr::run_cooperative_fleet(
        graph_->enumerate_candidates().size(), fleet_options(),
        [&](std::size_t, coda::ResultCache& cache) {
          TimedCache timed(&cache, &darr_timers_);
          EvalOptions eval;
          eval.metric = coda::Metric::kRmse;
          eval.threads = threads_;
          eval.cache = &timed;
          return coda::GraphEvaluator(eval).evaluate(*graph_, data_,
                                                     *cv.clone());
        });
  }

  std::uint64_t seed_;
  std::size_t threads_;
  coda::Dataset data_;
  std::unique_ptr<coda::TEGraph> graph_;
  EvaluationReport reference_report_;
  Answer reference_;
  Timers darr_timers_;  ///< filled by traced fleets
  std::size_t traced_fleets_ = 0;
};

std::string CoopFleetWorkload::trace_layers(Report& report) {
  // DARR client calls from the traced fleets.
  for (const char* op : {"fetch_many", "fetch", "claim", "put"}) {
    const std::string name = std::string("darr.") + op + "_s";
    const auto samples = darr_timers_.samples(name);
    const auto fleets = std::max<std::size_t>(traced_fleets_, 1);
    report.add(name + ".calls",
               static_cast<double>(samples.size()) /
                   static_cast<double>(fleets),
               "count",
               "calls per fleet, all clients, over " +
                   std::to_string(traced_fleets_) + " traced fleets");
    if (samples.empty()) {
      report.add(name + ".p50", 0.0, "s", "no calls");
      report.add(name + ".tail", 0.0, "s", "no calls");
      continue;
    }
    const Tail tl = tail(samples);
    report.add(name + ".p50", median(samples), "s", "per call");
    report.add(name + ".tail", tl.value, "s", tl.label());
  }
  const double granted =
      static_cast<double>(darr_timers_.count("darr.claim.granted"));
  const double denied =
      static_cast<double>(darr_timers_.count("darr.claim.denied"));
  report.add_ratio("darr.claim.denied_ratio",
                   Ratio{denied, granted + denied, "claims denied",
                         "claim attempts"});
  report.add_ratio(
      "darr.polls_per_grant",
      Ratio{static_cast<double>(darr_timers_.count("darr.fetch_s")), granted,
            "single-key re-polls", "claims granted"});

  // ml: one fold of every candidate's Pipeline, fitted on one thread.
  const auto splits = coda::KFold(kFolds).splits(data_.n_samples());
  const coda::Dataset train = data_.select(splits[0].train);
  const coda::Dataset test = data_.select(splits[0].test);
  const auto candidates = graph_->enumerate_candidates();
  Timers t;
  std::size_t mismatches = 0;
  Stopwatch total;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    Stopwatch build;
    coda::Pipeline pipeline = graph_->instantiate(candidates[i]);
    t.add("replay.build_s", build.elapsed_seconds());
    Stopwatch fit;
    pipeline.fit(train.X, train.y);
    t.add("ml.fit_s." + estimator_family(pipeline.estimator().name()),
          fit.elapsed_seconds());
    Stopwatch sc;
    const double score =
        coda::score(coda::Metric::kRmse, test.y, pipeline.predict(test.X));
    t.add("replay.score_s", sc.elapsed_seconds());
    const auto& ref = reference_report_.results[i].fold_scores;
    if (ref.empty() || std::memcmp(&score, &ref[0], sizeof(double)) != 0) {
      ++mismatches;
    }
  }
  const double total_s = total.elapsed_seconds();
  double children = t.sum("replay.build_s") + t.sum("replay.score_s");
  for (const char* f : {"random_forest", "decision_tree", "knn", "linear"}) {
    const std::string name = std::string("ml.fit_s.") + f;
    report.add(name, t.sum(name), "s",
               "fold-0 fits of " + std::to_string(t.count(name)) +
                   " candidates (one per scaler)");
    children += t.sum(name);
  }
  report.add("replay.total_s", total_s, "s",
             "one-thread replay of fold 0 of every candidate");
  report.add_ratio("replay.accounted_share",
                   Ratio{children, total_s, "s in timed calls",
                         "s replay total"});
  return mismatches == 0
             ? std::string()
             : std::to_string(mismatches) +
                   " replayed fold-0 scores differ from the reference search";
}

}  // namespace

std::unique_ptr<Workload> make_coop_fleet(std::uint64_t seed,
                                          std::size_t threads) {
  return std::make_unique<CoopFleetWorkload>(seed, threads);
}

}  // namespace perfbench
