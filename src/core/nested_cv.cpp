#include "src/core/nested_cv.h"

#include <tuple>

namespace coda {

NestedCvResult nested_cross_validate(const TEGraph& graph,
                                     const Dataset& data,
                                     const CrossValidator& outer_cv,
                                     const CrossValidator& inner_cv,
                                     const EvalOptions& config) {
  data.validate();
  const auto outer_splits = outer_cv.splits(data.n_samples());
  require(!outer_splits.empty(), "nested_cross_validate: no outer splits");

  GraphEvaluator evaluator(config);
  NestedCvResult result;
  result.outer_scores.reserve(outer_splits.size());

  for (const auto& split : outer_splits) {
    const Dataset train = data.select(split.train);
    const Dataset test = data.select(split.test);

    const auto inner_report = evaluator.evaluate(graph, train, inner_cv);
    Pipeline winner = GraphEvaluator::refit_best(graph, inner_report, train);
    result.mean_inner_score += inner_report.best().mean_score;
    result.selected_specs.push_back(inner_report.best().spec);

    const auto predictions = winner.predict(test.X);
    result.outer_scores.push_back(
        score(config.metric, test.y, predictions));
  }

  result.mean_inner_score /= static_cast<double>(result.outer_scores.size());
  std::tie(result.mean_score, result.stddev) =
      mean_stddev(result.outer_scores);
  return result;
}

}  // namespace coda
