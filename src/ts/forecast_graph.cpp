#include "src/ts/forecast_graph.h"

#include <utility>

#include "src/core/eval_engine.h"
#include "src/data/fingerprint.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/ts/forecast_plan.h"
#include "src/ts/forecasters.h"
#include "src/ts/nn_forecasters.h"
#include "src/util/hash.h"

namespace coda::ts {
namespace {

// Clones a neural prototype, names it, and pins its architecture variant.
template <typename ModelT>
std::unique_ptr<Estimator> make_arch_variant(const std::string& node_name,
                                             const std::string& arch) {
  auto model = std::make_unique<ModelT>();
  model->set_name(node_name);
  model->set_param("arch", arch);
  return model;
}

}  // namespace

ForecastGraph ForecastGraph::standard(const ForecastSpec& spec,
                                      std::int64_t neural_epochs) {
  ForecastGraph g(spec);
  g.add_scaler(std::make_unique<StandardScaler>());
  g.add_scaler(std::make_unique<MinMaxScaler>());
  g.add_scaler(std::make_unique<RobustScaler>());
  g.add_scaler(std::make_unique<NoOp>());

  g.add_windower(std::make_unique<CascadedWindows>(), "cascaded");
  g.add_windower(std::make_unique<FlatWindowing>(), "flat");
  g.add_windower(std::make_unique<TsAsIid>(), "iid");
  g.add_windower(std::make_unique<TsAsIs>(), "asis");

  // Temporal models consume cascaded windows (Fig 11 wiring).
  g.add_model(make_arch_variant<LstmForecaster>("lstm_simple", "simple"),
              "cascaded");
  g.add_model(make_arch_variant<LstmForecaster>("lstm_deep", "deep"),
              "cascaded");
  g.add_model(make_arch_variant<CnnForecaster>("cnn_simple", "simple"),
              "cascaded");
  g.add_model(make_arch_variant<CnnForecaster>("cnn_deep", "deep"),
              "cascaded");
  g.add_model(std::make_unique<WaveNetForecaster>(), "cascaded");
  g.add_model(std::make_unique<SeriesNetForecaster>(), "cascaded");
  // The AR(p) regression also reads lagged values (VAR over the window).
  g.add_model(std::make_unique<ArModel>(), "cascaded");

  // IID DNNs consume flattened windows and per-timestamp points.
  g.add_model(make_arch_variant<DnnForecaster>("dnn_simple", "simple"),
              "flat");
  g.add_model(make_arch_variant<DnnForecaster>("dnn_deep", "deep"), "flat");
  g.add_model(make_arch_variant<DnnForecaster>("dnn_iid_simple", "simple"),
              "iid");
  g.add_model(make_arch_variant<DnnForecaster>("dnn_iid_deep", "deep"),
              "iid");

  // The persistence baseline consumes the raw (as-is) feed.
  g.add_model(std::make_unique<ZeroModel>(), "asis");

  if (neural_epochs > 0) {
    for (auto& option : g.models_) {
      if (option.model->params().contains("epochs")) {
        option.model->set_param("epochs", neural_epochs);
      }
    }
  }
  return g;
}

ForecastGraph& ForecastGraph::add_scaler(
    std::unique_ptr<Transformer> scaler) {
  require(scaler != nullptr, "ForecastGraph: null scaler");
  scalers_.push_back(std::move(scaler));
  return *this;
}

ForecastGraph& ForecastGraph::add_windower(
    std::unique_ptr<WindowMaker> windower, std::string tag) {
  require(windower != nullptr, "ForecastGraph: null windower");
  require(!tag.empty(), "ForecastGraph: windower tag must be non-empty");
  windowers_.push_back(WindowerOption{std::move(windower), std::move(tag)});
  return *this;
}

ForecastGraph& ForecastGraph::add_model(std::unique_ptr<Estimator> model,
                                        std::string consumes_tag) {
  require(model != nullptr, "ForecastGraph: null model");
  for (const auto& m : models_) {
    require(m.model->name() != model->name(),
            "ForecastGraph: duplicate model name '" + model->name() + "'");
  }
  models_.push_back(ModelOption{std::move(model), std::move(consumes_tag)});
  return *this;
}

std::vector<ForecastGraph::Candidate> ForecastGraph::enumerate() const {
  require(!scalers_.empty() && !windowers_.empty() && !models_.empty(),
          "ForecastGraph: all three stages need options");
  std::vector<Candidate> out;
  for (std::size_t s = 0; s < scalers_.size(); ++s) {
    for (std::size_t w = 0; w < windowers_.size(); ++w) {
      for (std::size_t m = 0; m < models_.size(); ++m) {
        if (models_[m].consumes_tag != windowers_[w].tag) continue;
        out.push_back(Candidate{s, w, m});
      }
    }
  }
  require(!out.empty(), "ForecastGraph: no legal path (check tags)");
  return out;
}

ForecastPipeline ForecastGraph::instantiate(const Candidate& candidate,
                                            std::size_t n_variables) const {
  require(candidate.scaler < scalers_.size() &&
              candidate.windower < windowers_.size() &&
              candidate.model < models_.size(),
          "ForecastGraph::instantiate: index out of range");
  require(models_[candidate.model].consumes_tag ==
              windowers_[candidate.windower].tag,
          "ForecastGraph::instantiate: incompatible windower/model pair");
  auto model = models_[candidate.model].model->clone_estimator();
  // Temporal models need the channel count to reshape flattened windows.
  if (model->params().contains("n_vars")) {
    model->set_param("n_vars", static_cast<std::int64_t>(n_variables));
  }
  return ForecastPipeline(
      scalers_[candidate.scaler]->clone_transformer(),
      windowers_[candidate.windower].windower->clone(), std::move(model),
      spec_);
}

std::string ForecastGraph::candidate_spec(const Candidate& candidate,
                                          std::size_t n_variables) const {
  return instantiate(candidate, n_variables).spec_string();
}

std::string ForecastGraph::to_dot() const {
  std::string out = "digraph ts_pipeline {\n  rankdir=LR;\n";
  out += "  input [shape=ellipse];\n";
  auto cluster = [&out](const std::string& name, std::size_t id,
                        const std::vector<std::string>& nodes) {
    out += "  subgraph cluster_" + std::to_string(id) + " {\n    label=\"" +
           name + "\";\n";
    for (const auto& n : nodes) out += "    \"" + n + "\" [shape=box];\n";
    out += "  }\n";
  };
  std::vector<std::string> scaler_names;
  for (const auto& s : scalers_) scaler_names.push_back(s->name());
  std::vector<std::string> windower_names;
  for (const auto& w : windowers_) windower_names.push_back(w.windower->name());
  std::vector<std::string> model_names;
  for (const auto& m : models_) model_names.push_back(m.model->name());
  cluster("Data Scaling", 0, scaler_names);
  cluster("Data Preprocessing", 1, windower_names);
  cluster("Modelling", 2, model_names);

  for (const auto& s : scaler_names) out += "  input -> \"" + s + "\";\n";
  for (const auto& s : scaler_names) {
    for (const auto& w : windower_names) {
      out += "  \"" + s + "\" -> \"" + w + "\";\n";
    }
  }
  for (const auto& w : windowers_) {
    for (const auto& m : models_) {
      if (m.consumes_tag != w.tag) continue;
      out += "  \"" + w.windower->name() + "\" -> \"" + m.model->name() +
             "\";\n";
    }
  }
  out += "}\n";
  return out;
}

namespace {

std::size_t windowed_bytes(const WindowedData& wd) {
  return wd.X.size() * sizeof(double) + wd.y.size() * sizeof(double) +
         wd.target_times.size() * sizeof(std::size_t) +
         wd.span_starts.size() * sizeof(std::size_t) + sizeof(WindowedData);
}

/// Scores candidate x fold with (scaler, windower) prefix memoization: the
/// WindowedData for one fold depends only on the scaler spec, the windower
/// and the training range — every model consuming that pair reuses it, and
/// one shared copy serves both the fold's fit and its validation
/// predictions (the old path windowed the series twice per fold).
/// Windowing is deterministic, so scores are bit-identical either way.
double score_forecast_fold(const ForecastGraph& graph,
                           const ForecastGraph::Candidate& candidate,
                           const TimeSeries& series, std::size_t n_variables,
                           const Split& split, std::size_t fold,
                           PrefixCache& prefixes, Metric metric,
                           bool compile_plans) {
  ForecastPipeline pipeline = graph.instantiate(candidate, n_variables);
  const std::size_t a = split.train.front();
  const std::size_t b = split.train.back() + 1;
  const std::size_t c = split.test.front();
  const std::size_t d = split.test.back() + 1;
  const std::string prefix = pipeline.scaler().spec() + "|" +
                             pipeline.windower().name();
  if (compile_plans) {
    // Compiled plans are fold-independent, so they memoize under a key
    // without a fold component — folds and sibling models all reuse one
    // plan per (scaler, windower) prefix. The key embeds the canonical
    // component specs, so a parameter change invalidates the plan exactly
    // like it invalidates the fitted prefix below.
    // Phase attribution: plan + fold memoization = prepare, model fit =
    // fit, predict + metric = score; each phase region wraps its
    // lookup-or-compute block whole (profiler determinism rules).
    std::shared_ptr<const PreparedFold> prepared;
    {
      const obs::Region phase(obs::Phase::kPrepare);
      const std::string plan_key = "plan|ts|" + prefix;
      std::shared_ptr<const CompiledForecastPlan> plan =
          prefixes.get<CompiledForecastPlan>(plan_key);
      if (plan == nullptr) {
        plan = CompiledForecastPlan::compile(pipeline);
        prefixes.insert(plan_key, plan, plan->bytes());
      }
      const std::string fold_key = "tsplan|f" + std::to_string(fold) + "|" +
                                   prefix;
      prepared = prefixes.get<PreparedFold>(fold_key);
      if (prepared == nullptr) {
        auto computed =
            std::make_shared<PreparedFold>(plan->prepare(series, a, b, c, d));
        prefixes.insert(fold_key, computed, computed->bytes());
        prepared = std::move(computed);
      }
    }
    {
      const obs::Region phase(obs::Phase::kFit);
      pipeline.model().fit(prepared->X_train, prepared->y_train);
    }
    const obs::Region phase(obs::Phase::kScore);
    return score(metric, prepared->y_val,
                 pipeline.model().predict(prepared->X_val));
  }
  std::shared_ptr<const WindowedData> wd;
  {
    const obs::Region phase(obs::Phase::kPrepare);
    const std::string prefix_key =
        "ts|f" + std::to_string(fold) + "|" + prefix;
    wd = prefixes.get<WindowedData>(prefix_key);
    if (wd == nullptr) {
      auto computed = std::make_shared<WindowedData>(
          pipeline.prepare_windows(series, a, b));
      prefixes.insert(prefix_key, computed, windowed_bytes(*computed));
      wd = std::move(computed);
    }
  }
  {
    const obs::Region phase(obs::Phase::kFit);
    pipeline.fit_prepared(series, a, b, *wd);
  }
  const obs::Region phase(obs::Phase::kScore);
  const auto [pred, truth] = pipeline.predict_range_prepared(*wd, c, d);
  return score(metric, truth, pred);
}

}  // namespace

ForecastGraphEvaluator::ForecastGraphEvaluator(EvalOptions options)
    : options_(std::move(options)) {}

std::string ForecastGraphEvaluator::cache_key(
    const TimeSeries& series, const std::string& candidate_spec,
    const TimeSeriesSlidingSplit& cv, Metric metric) {
  return hash_to_hex(fingerprint(series)) + "|" + candidate_spec + "|" +
         cv.spec() + "|" + metric_name(metric);
}

EvaluationReport ForecastGraphEvaluator::evaluate(
    const ForecastGraph& graph, const TimeSeries& series,
    const TimeSeriesSlidingSplit& cv) const {
  const auto candidates = graph.enumerate();
  const std::size_t v = series.n_variables();
  const auto splits = cv.splits(series.length());
  require(!splits.empty(),
          "ForecastGraphEvaluator: CV produced no splits");

  const bool cooperative = options_.cache != nullptr;
  std::vector<EvalEngine::Candidate> engine_candidates;
  engine_candidates.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EvalEngine::Candidate ec;
    ec.spec = graph.candidate_spec(candidates[i], v);
    ec.key = cooperative ? cache_key(series, ec.spec, cv, options_.metric)
                         : std::string();
    ec.score_fold = [this, &graph, &candidates, &series, &splits, v, i](
                        std::size_t fold, PrefixCache& prefixes) {
      return score_forecast_fold(graph, candidates[i], series, v,
                                 splits[fold], fold, prefixes,
                                 options_.metric, options_.compile_plans);
    };
    engine_candidates.push_back(std::move(ec));
  }

  EvalEngine engine(options_);
  return engine.run(std::move(engine_candidates), splits.size());
}

ForecastPipeline ForecastGraphEvaluator::refit_best(
    const ForecastGraph& graph, const EvaluationReport& report,
    const TimeSeries& series) {
  const auto candidates = graph.enumerate();
  const std::size_t v = series.n_variables();
  for (const auto& candidate : candidates) {
    if (graph.candidate_spec(candidate, v) == report.best().spec) {
      ForecastPipeline p = graph.instantiate(candidate, v);
      p.fit_full(series);
      return p;
    }
  }
  throw StateError("ForecastGraphEvaluator: best candidate not found");
}

}  // namespace coda::ts
