// forecast_fit and forecast_prepare: Fig-11 forecast searches through
// ts::ForecastGraphEvaluator, and their traced replay.
//
// The replay walks the same work the search schedules — per fold and
// (scaler, windower) prefix one compiled-plan prepare, per candidate one
// model fit and one scoring — on one thread, timing each call. Every replayed
// fold score must equal the reference search's bit for bit. The neural
// families are then re-trained once more as replicas built from the public
// nn layers (NeuralForecaster::build_network is protected) so forward,
// backward, optimizer and loss time can be attributed per layer kind.
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "layer_timers.h"
#include "src/core/metrics.h"
#include "src/data/synthetic.h"
#include "src/ml/scalers.h"
#include "src/nn/activations.h"
#include "src/nn/conv1d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/lstm.h"
#include "src/nn/slice.h"
#include "src/nn/trainer.h"
#include "src/ts/forecast_graph.h"
#include "src/ts/forecast_plan.h"
#include "src/ts/forecasters.h"
#include "src/ts/nn_forecasters.h"
#include "src/util/stopwatch.h"
#include "workload.h"

namespace perfbench {
namespace {

using coda::Estimator;
using coda::EvalOptions;
using coda::EvaluationReport;
using coda::Matrix;
using coda::Stopwatch;
namespace nn = coda::nn;
namespace ts = coda::ts;

/// The neural families reported one by one, with the model each family's
/// replica reproduces (the first one the graph enumerates).
const char* const kFamilies[] = {"lstm_simple", "lstm_deep", "cnn_simple",
                                 "cnn_deep",    "wavenet",   "seriesnet",
                                 "dnn"};

std::string family_of(const std::string& model_name) {
  if (model_name.rfind("dnn", 0) == 0) return "dnn";
  for (const char* f : kFamilies) {
    if (model_name == f) return f;
  }
  return "";  // statistical models (AR, zero)
}

// --- replicas of the documented network stacks (nn_forecasters.cpp) -------

nn::Sequential build_replica(const Estimator& model, std::size_t in_features,
                             Timers* timers) {
  const coda::ParamMap& p = model.params();
  const auto seed = static_cast<std::uint64_t>(p.get_int("seed"));
  const double dropout = p.get_double("dropout");
  nn::Sequential net;
  const auto add = [&](std::unique_ptr<nn::Layer> layer) {
    if (timers != nullptr) {
      layer = std::make_unique<TimedLayer>(std::move(layer), timers);
    }
    net.add(std::move(layer));
  };
  const auto channels = [&] {
    return static_cast<std::size_t>(p.get_int("n_vars"));
  };
  const auto sz = [&](const char* key) {
    return static_cast<std::size_t>(p.get_int(key));
  };

  if (dynamic_cast<const ts::DnnForecaster*>(&model) != nullptr) {
    const std::size_t hidden = sz("hidden");
    const std::size_t n_hidden = p.get_string("arch") == "simple" ? 2 : 4;
    std::size_t width = in_features;
    for (std::size_t l = 0; l < n_hidden; ++l) {
      add(std::make_unique<nn::Dense>(width, hidden, seed + l,
                                      coda::kernels::Activation::kRelu));
      if (dropout > 0.0) {
        add(std::make_unique<nn::Dropout>(dropout, seed + 100 + l));
      }
      width = hidden;
    }
    add(std::make_unique<nn::Dense>(width, std::size_t{1}, seed + 999));
  } else if (dynamic_cast<const ts::LstmForecaster*>(&model) != nullptr) {
    const std::size_t hidden = sz("hidden");
    const std::size_t n_layers = p.get_string("arch") == "simple" ? 1 : 4;
    std::size_t width = channels();
    for (std::size_t l = 0; l < n_layers; ++l) {
      add(std::make_unique<nn::Lstm>(width, hidden, l + 1 < n_layers,
                                     seed + l));
      if (dropout > 0.0) {
        add(std::make_unique<nn::Dropout>(dropout, seed + 100 + l));
      }
      width = hidden;
    }
    add(std::make_unique<nn::Dense>(hidden, std::size_t{1}, seed + 999));
  } else if (dynamic_cast<const ts::CnnForecaster*>(&model) != nullptr) {
    const std::size_t filters = sz("filters");
    const std::size_t hidden = sz("hidden");
    const std::size_t blocks = p.get_string("arch") == "simple" ? 1 : 2;
    std::size_t length = in_features / channels();
    std::size_t width = channels();
    for (std::size_t b = 0; b < blocks; ++b) {
      add(std::make_unique<nn::Conv1D>(width, filters, sz("kernel"), 1, true,
                                       seed + b));
      add(std::make_unique<nn::ReLU>());
      if (length >= 2) {
        add(std::make_unique<nn::MaxPool1D>(filters, std::size_t{2}));
        length /= 2;
      }
      width = filters;
    }
    add(std::make_unique<nn::Dense>(length * filters, hidden, seed + 500,
                                    coda::kernels::Activation::kRelu));
    if (dropout > 0.0) {
      add(std::make_unique<nn::Dropout>(dropout, seed + 600));
    }
    add(std::make_unique<nn::Dense>(hidden, std::size_t{1}, seed + 999));
  } else {
    // WaveNet (one dilation ladder, ReLU) or SeriesNet (two, tanh).
    const bool seriesnet =
        dynamic_cast<const ts::SeriesNetForecaster*>(&model) != nullptr;
    if (!seriesnet &&
        dynamic_cast<const ts::WaveNetForecaster*>(&model) == nullptr) {
      throw std::invalid_argument("no replica for model " + model.name());
    }
    const std::size_t filters = sz("filters");
    const std::size_t seq_len = in_features / channels();
    std::size_t width = channels();
    std::size_t layer = 0;
    for (std::size_t pass = 0; pass < (seriesnet ? 2u : 1u); ++pass) {
      for (std::size_t dilation = 1; dilation < seq_len; dilation *= 2) {
        add(std::make_unique<nn::Conv1D>(width, filters, std::size_t{2},
                                         dilation, true, seed + layer));
        if (seriesnet) {
          add(std::make_unique<nn::Tanh>());
        } else {
          add(std::make_unique<nn::ReLU>());
        }
        width = filters;
        ++layer;
      }
    }
    if (layer == 0) {
      throw std::invalid_argument("replica needs a history of 2 or more");
    }
    add(std::make_unique<nn::SliceLastTimestep>(filters));
    add(std::make_unique<nn::Dense>(filters, std::size_t{1}, seed + 999));
  }
  return net;
}

struct ReplicaRun {
  double train_seconds = 0.0;                ///< inside nn::train
  std::map<std::string, double> layer_sums;  ///< timed calls during training
  std::vector<double> predictions;           ///< on the validation rows
};

/// Trains a replica exactly as NeuralForecaster::fit trains the model
/// (standardized targets, Adam, MSE) and predicts the validation rows as
/// NeuralForecaster::predict does. With `timers`, every layer, the
/// optimizer and the loss are timed during training.
ReplicaRun run_replica(const Estimator& model, const Matrix& X,
                       const std::vector<double>& y, const Matrix& X_val,
                       Timers* timers) {
  double y_mean = 0.0;
  for (const double v : y) y_mean += v;
  y_mean /= static_cast<double>(y.size());
  double var = 0.0;
  for (const double v : y) var += (v - y_mean) * (v - y_mean);
  double y_scale = std::sqrt(var / static_cast<double>(y.size()));
  if (y_scale == 0.0) y_scale = 1.0;
  std::vector<double> scaled(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    scaled[i] = (y[i] - y_mean) / y_scale;
  }

  const coda::ParamMap& p = model.params();
  nn::Sequential net = build_replica(model, X.cols(), timers);
  nn::TrainConfig cfg;
  cfg.epochs = static_cast<std::size_t>(p.get_int("epochs"));
  cfg.batch_size = static_cast<std::size_t>(p.get_int("batch_size"));
  cfg.shuffle_seed = static_cast<std::uint64_t>(p.get_int("seed"));
  nn::MseLoss mse;
  nn::Adam adam(p.get_double("learning_rate"));
  const Matrix targets = nn::column_matrix(scaled);
  ReplicaRun run;
  Stopwatch train_timer;
  if (timers != nullptr) {
    TimedLoss loss(&mse, timers);
    TimedOptimizer optimizer(&adam, timers);
    nn::train(net, X, targets, loss, optimizer, cfg);
  } else {
    nn::train(net, X, targets, mse, adam, cfg);
  }
  run.train_seconds = train_timer.elapsed_seconds();
  if (timers != nullptr) run.layer_sums = timers->sums();

  nn::Sequential infer = net;
  const Matrix out = infer.forward(X_val, /*training=*/false);
  run.predictions.resize(X_val.rows());
  for (std::size_t i = 0; i < X_val.rows(); ++i) {
    run.predictions[i] = out(i, 0) * y_scale + y_mean;
  }
  return run;
}

// --- the workloads ----------------------------------------------------------

enum class Kind { kFit, kPrepare };

class ForecastWorkload final : public Workload {
 public:
  ForecastWorkload(Kind kind, std::uint64_t seed, std::size_t threads)
      : kind_(kind), seed_(seed), threads_(threads) {}

  void setup() override {
    coda::IndustrialSeriesConfig cfg;
    cfg.seasonal_amplitude = 2.0;
    cfg.noise_stddev = 0.2;
    cfg.seed = derive_seed(seed_, 1);
    ts::ForecastSpec spec;
    if (kind_ == Kind::kFit) {
      cfg.n_variables = 2;
      cfg.length = 260;
      spec.history = 24;
      graph_ = std::make_unique<ts::ForecastGraph>(
          ts::ForecastGraph::standard(spec, /*neural_epochs=*/12));
      cv_ = std::make_unique<coda::TimeSeriesSlidingSplit>(2, 150, 40, 5);
    } else {
      cfg.n_variables = 3;
      cfg.length = 4000;
      spec.history = 96;
      graph_ = std::make_unique<ts::ForecastGraph>(spec);
      graph_->add_scaler(std::make_unique<coda::StandardScaler>());
      graph_->add_scaler(std::make_unique<coda::MinMaxScaler>());
      graph_->add_scaler(std::make_unique<coda::RobustScaler>());
      graph_->add_scaler(std::make_unique<coda::NoOp>());
      graph_->add_windower(std::make_unique<ts::CascadedWindows>(),
                           "cascaded");
      for (int lag = 0; lag < 10; ++lag) {
        auto zero = std::make_unique<ts::ZeroModel>();
        zero->set_name("zero_lag" + std::to_string(lag));
        zero->set_param("value_col", std::int64_t{lag});
        graph_->add_model(std::move(zero), "cascaded");
      }
      cv_ = std::make_unique<coda::TimeSeriesSlidingSplit>(4, 2400, 450, 10);
    }
    series_ = coda::make_industrial_series(cfg);
  }

  void compute_reference() override {
    EvalOptions options = search_options();
    options.threads = 1;
    options.search = coda::SearchOptions{};  // exhaustive
    reference_report_ = ts::ForecastGraphEvaluator(options).evaluate(
        *graph_, series_, *cv_);
    reference_ = Answer{reference_report_.best().spec,
                        reference_report_.best().fold_scores};
  }

  const Answer& reference() const override { return reference_; }

  SearchOutcome search(bool /*traced*/) override {
    SearchOutcome out;
    Stopwatch timer;
    try {
      const EvaluationReport report =
          ts::ForecastGraphEvaluator(search_options())
              .evaluate(*graph_, series_, *cv_);
      out.seconds = timer.elapsed_seconds();
      out.answers.push_back(
          Answer{report.best().spec, report.best().fold_scores});
      out.fold_evaluations = report.fold_evaluations;
      out.fold_evaluations_planned = report.fold_evaluations_planned;
      out.pruned = report.pruned_candidates;
    } catch (const std::exception& e) {
      out.seconds = timer.elapsed_seconds();
      out.error = e.what();
    }
    return out;
  }

  std::size_t pool_threads() const override { return threads_; }

  std::string trace_layers(Report& report) override;

 private:
  EvalOptions search_options() const {
    EvalOptions options;
    options.metric = coda::Metric::kRmse;
    options.threads = threads_;
    if (kind_ == Kind::kPrepare) {
      options.search.strategy = coda::SearchStrategy::kHalving;
      options.search.seed = derive_seed(seed_, 2);
    }
    return options;
  }

  Kind kind_;
  std::uint64_t seed_;
  std::size_t threads_;
  coda::TimeSeries series_;
  std::unique_ptr<ts::ForecastGraph> graph_;
  std::unique_ptr<coda::TimeSeriesSlidingSplit> cv_;
  EvaluationReport reference_report_;
  Answer reference_;
};

std::string ForecastWorkload::trace_layers(Report& report) {
  const auto candidates = graph_->enumerate();
  const std::size_t v = series_.n_variables();
  const auto splits = cv_->splits(series_.length());
  const coda::Metric metric = coda::Metric::kRmse;

  // Replay. Each timed call below is one child of the replay; their sum
  // must account for the replay's total.
  Timers t;
  std::size_t window_bytes = 0;
  std::size_t mismatches = 0;
  struct Representative {
    double real_fit_seconds = 0.0;
    std::unique_ptr<ts::ForecastPipeline> fitted;
  };
  std::map<std::string, Representative> reps;
  std::map<std::string, std::shared_ptr<const ts::PreparedFold>> fold0;
  Stopwatch total;
  for (std::size_t f = 0; f < splits.size(); ++f) {
    const auto& split = splits[f];
    const std::size_t a = split.train.front();
    const std::size_t b = split.train.back() + 1;
    const std::size_t c = split.test.front();
    const std::size_t d = split.test.back() + 1;
    std::map<std::string, std::shared_ptr<const ts::PreparedFold>> prepared;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      Stopwatch build;
      auto pipeline = std::make_unique<ts::ForecastPipeline>(
          graph_->instantiate(candidates[i], v));
      const std::string prefix =
          pipeline->scaler().spec() + "|" + pipeline->windower().name();
      t.add("replay.build_s", build.elapsed_seconds());

      auto& fold = prepared[prefix];
      if (fold == nullptr) {
        // Compile + prepare: the search's eval.fold.prepare phase, once
        // per fold and prefix as its prefix cache arranges.
        Stopwatch prep;
        const auto plan = ts::CompiledForecastPlan::compile(*pipeline);
        fold = std::make_shared<const ts::PreparedFold>(
            plan->prepare(series_, a, b, c, d));
        t.add("ts.prepare_s", prep.elapsed_seconds());
        window_bytes += (fold->X_train.size() + fold->X_val.size()) *
                        sizeof(double);
        if (f == 0) fold0[prefix] = fold;
      }

      const std::string family = family_of(pipeline->model().name());
      Stopwatch fit;
      pipeline->model().fit(fold->X_train, fold->y_train);
      const double fit_s = fit.elapsed_seconds();
      if (family.empty()) {
        t.add("replay.other_fit_s", fit_s);
      } else {
        t.add("nn.fit_s." + family, fit_s);
      }

      Stopwatch sc;
      const double score =
          coda::score(metric, fold->y_val,
                      pipeline->model().predict(fold->X_val));
      t.add("replay.score_s", sc.elapsed_seconds());

      const auto& ref = reference_report_.results[i];
      if (ref.fold_scores.size() != splits.size() ||
          std::memcmp(&score, &ref.fold_scores[f], sizeof(double)) != 0) {
        ++mismatches;
      }
      if (f == 0 && !family.empty() && reps.count(family) == 0) {
        reps[family] = Representative{fit_s, std::move(pipeline)};
      } else {
        Stopwatch teardown;
        pipeline.reset();
        t.add("replay.build_s", teardown.elapsed_seconds());
      }
    }
    // Freeing the fold's design matrices is part of the replay too.
    Stopwatch teardown;
    prepared.clear();
    t.add("replay.build_s", teardown.elapsed_seconds());
  }
  const double total_s = total.elapsed_seconds();

  const auto prepare_samples = t.samples("ts.prepare_s");
  report.add("ts.prepare_s.p50", median(prepare_samples), "s",
             "median of " + std::to_string(prepare_samples.size()) +
                 " replayed compiled-plan prepares (one per fold x prefix)");
  report.add("ts.prepare_s.sum", t.sum("ts.prepare_s"), "s",
             "replayed prepare seconds per search");
  report.add("ts.window_bytes", static_cast<double>(window_bytes), "bytes",
             "train+val design matrices per search, rows x cols x 8");
  double children = t.sum("replay.build_s") + t.sum("ts.prepare_s") +
                    t.sum("replay.other_fit_s") + t.sum("replay.score_s");
  for (const char* family : kFamilies) {
    const std::string name = std::string("nn.fit_s.") + family;
    if (t.count(name) == 0) continue;
    report.add(name, t.sum(name), "s",
               "replayed fit seconds per search, " +
                   std::to_string(t.count(name)) + " fits");
    children += t.sum(name);
  }
  report.add("replay.total_s", total_s, "s",
             "one-thread replay of every fold of every candidate");
  report.add_ratio("replay.accounted_share",
                   Ratio{children, total_s, "s in timed calls",
                         "s replay total"});

  // Replicas: one per neural family, trained on the representative's
  // fold-0 design matrices, untraced then traced. A replica whose
  // predictions differ from the real model's in any bit is dropped.
  std::map<std::string, double> layer_totals;
  double traced_train_s = 0.0;
  std::size_t matched = 0;
  for (const char* family : kFamilies) {
    auto it = reps.find(family);
    if (it == reps.end()) continue;
    const Representative& rep = it->second;
    const ts::ForecastPipeline& pipeline = *rep.fitted;
    const std::string prefix =
        pipeline.scaler().spec() + "|" + pipeline.windower().name();
    const ts::PreparedFold& fold = *fold0.at(prefix);
    const std::vector<double> real = pipeline.model().predict(fold.X_val);

    const ReplicaRun plain = run_replica(pipeline.model(), fold.X_train,
                                         fold.y_train, fold.X_val, nullptr);
    Timers layer_timers;
    const ReplicaRun traced =
        run_replica(pipeline.model(), fold.X_train, fold.y_train, fold.X_val,
                    &layer_timers);
    if (!same_bits(plain.predictions, real) ||
        !same_bits(traced.predictions, real)) {
      std::printf("# replica %s dropped: its predictions differ from the "
                  "real model's\n",
                  family);
      continue;
    }
    ++matched;
    traced_train_s += traced.train_seconds;
    for (const auto& [name, s] : traced.layer_sums) layer_totals[name] += s;
    char note[160];
    std::snprintf(note, sizeof(note),
                  "untraced replica fit; the real fit of the same model and "
                  "fold took %.6f s",
                  rep.real_fit_seconds);
    report.add(std::string("nn.replica_fit_s.") + family,
               plain.train_seconds, "s", note);
  }
  double layer_sum = 0.0;
  for (const char* kind : {"lstm", "conv1d", "dense", "dropout", "other"}) {
    for (const char* dir : {"fwd_s", "bwd_s"}) {
      const std::string name = std::string("nn.") + kind + "." + dir;
      report.add(name, layer_totals[name], "s",
                 "traced replica training, summed over matched replicas");
      layer_sum += layer_totals[name];
    }
  }
  for (const char* name : {"nn.optimizer_s", "nn.loss_s"}) {
    report.add(name, layer_totals[name], "s",
               "traced replica training, summed over matched replicas");
    layer_sum += layer_totals[name];
  }
  report.add("nn.replicas_matched", static_cast<double>(matched), "count",
             "replicas whose predictions equal the real model's bit for bit");
  report.add("nn.replica_train_s", traced_train_s, "s",
             "traced replica training wall, summed over matched replicas");
  report.add_ratio("nn.accounted_share",
                   Ratio{layer_sum, traced_train_s, "s in timed layer calls",
                         "s traced replica training"});
  return mismatches == 0
             ? std::string()
             : std::to_string(mismatches) +
                   " replayed fold scores differ from the reference search";
}

}  // namespace

std::unique_ptr<Workload> make_forecast_fit(std::uint64_t seed,
                                            std::size_t threads) {
  return std::make_unique<ForecastWorkload>(Kind::kFit, seed, threads);
}

std::unique_ptr<Workload> make_forecast_prepare(std::uint64_t seed,
                                                std::size_t threads) {
  return std::make_unique<ForecastWorkload>(Kind::kPrepare, seed, threads);
}

}  // namespace perfbench
