// The Transformer-Estimator Graph for time-series prediction (Fig 11):
// Data Scaling x Data Preprocessing x Modelling, with compatibility edges
// wiring each preprocessor only to the estimators that can consume it —
// CascadedWindows -> temporal models, FlatWindowing / TS-as-IID -> IID
// DNNs, TS-as-is -> statistical models.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/component.h"
#include "src/core/evaluator.h"
#include "src/ts/forecast_pipeline.h"
#include "src/ts/windowing.h"

namespace coda::ts {

/// Builds and enumerates forecast paths. Stage options are added with tags;
/// a model consumes exactly the windowers whose tag matches its input tag.
class ForecastGraph {
 public:
  explicit ForecastGraph(ForecastSpec spec) : spec_(spec) {}

  /// The standard Fig 11 graph: 4 scalers (standard, min-max, robust, none)
  /// x 4 preprocessors x 12 models (LSTM simple/deep, CNN simple/deep,
  /// WaveNet, SeriesNet, DNN simple/deep x2 feeds, Zero, AR) with the
  /// paper's edges. `neural_epochs` overrides every neural model's training
  /// epochs (0 keeps each model's default) — useful to trade search time
  /// against model quality.
  static ForecastGraph standard(const ForecastSpec& spec,
                                std::int64_t neural_epochs = 0);

  ForecastGraph& add_scaler(std::unique_ptr<Transformer> scaler);
  ForecastGraph& add_windower(std::unique_ptr<WindowMaker> windower,
                              std::string tag);
  /// `consumes_tag` names the windower tag this model is wired to.
  ForecastGraph& add_model(std::unique_ptr<Estimator> model,
                           std::string consumes_tag);

  const ForecastSpec& spec() const { return spec_; }
  std::size_t n_scalers() const { return scalers_.size(); }
  std::size_t n_windowers() const { return windowers_.size(); }
  std::size_t n_models() const { return models_.size(); }

  /// One legal path: indices into the three stages.
  struct Candidate {
    std::size_t scaler;
    std::size_t windower;
    std::size_t model;
  };

  /// All legal paths (honouring windower->model compatibility).
  std::vector<Candidate> enumerate() const;

  /// Size of the unrestricted cartesian product (for the pruning ablation).
  std::size_t count_full_cartesian() const {
    return scalers_.size() * windowers_.size() * models_.size();
  }

  /// Builds the runnable pipeline for a candidate. Temporal models get
  /// their `n_vars` parameter set to `n_variables` so they can reshape
  /// flattened cascaded windows.
  ForecastPipeline instantiate(const Candidate& candidate,
                               std::size_t n_variables) const;

  std::string candidate_spec(const Candidate& candidate,
                             std::size_t n_variables) const;

  /// Graphviz rendering of the staged graph with its compatibility edges.
  std::string to_dot() const;

 private:
  struct WindowerOption {
    std::unique_ptr<WindowMaker> windower;
    std::string tag;
  };
  struct ModelOption {
    std::unique_ptr<Estimator> model;
    std::string consumes_tag;
  };

  ForecastSpec spec_;
  std::vector<std::unique_ptr<Transformer>> scalers_;
  std::vector<WindowerOption> windowers_;
  std::vector<ModelOption> models_;
};

/// Evaluates every path of a forecast graph under a sliding split, in
/// parallel, optionally cooperating through a ResultCache (DARR).
/// Delegates scheduling, shared-prefix memoization (one WindowedData per
/// fold x scaler x windower) and the claim protocol to the EvalEngine.
class ForecastGraphEvaluator {
 public:
  explicit ForecastGraphEvaluator(EvalOptions options = {});

  EvaluationReport evaluate(const ForecastGraph& graph,
                            const TimeSeries& series,
                            const TimeSeriesSlidingSplit& cv) const;

  /// The best path of `report` (an evaluate() of `graph` on `series`),
  /// re-fitted on the whole series; no path is re-scored.
  static ForecastPipeline refit_best(const ForecastGraph& graph,
                                     const EvaluationReport& report,
                                     const TimeSeries& series);

  static std::string cache_key(const TimeSeries& series,
                               const std::string& candidate_spec,
                               const TimeSeriesSlidingSplit& cv,
                               Metric metric);

 private:
  EvalOptions options_;
};

}  // namespace coda::ts
