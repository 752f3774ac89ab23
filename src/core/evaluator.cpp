#include "src/core/evaluator.h"

#include <tuple>
#include <utility>

#include "src/core/eval_engine.h"
#include "src/core/plan_compiler.h"
#include "src/data/fingerprint.h"
#include "src/obs/obs.h"
#include "src/util/hash.h"
#include "src/util/stopwatch.h"

namespace coda {

std::vector<std::optional<CachedResult>> ResultCache::fetch_many(
    const std::vector<std::string>& keys) {
  std::vector<std::optional<CachedResult>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(fetch(key));
  return out;
}

std::optional<CachedResult> LocalResultCache::fetch(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = results_.find(key);
  if (it == results_.end()) return std::nullopt;
  return it->second;
}

bool LocalResultCache::claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (results_.count(key) != 0) return true;  // already done; fetch will hit
  return claims_.insert(key).second;
}

void LocalResultCache::put(const std::string& key,
                           const CachedResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  results_[key] = result;
  claims_.erase(key);
}

void LocalResultCache::release(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  claims_.erase(key);
}

const CandidateResult& EvaluationReport::best() const {
  require_state(!results.empty(), "EvaluationReport: empty report");
  return results[best_index];
}

CachedResult cross_validate(const Pipeline& pipeline, const Dataset& data,
                            const CrossValidator& cv, Metric metric) {
  data.validate();
  const auto splits = cv.splits(data.n_samples());
  require(!splits.empty(), "cross_validate: CV produced no splits");

  static auto& fold_seconds = obs::histogram("cv.fold.seconds");
  const obs::Region cv_span(obs::region_id<"cv.cross_validate">(),
                            obs::kTraced);

  CachedResult result;
  result.explanation = pipeline.spec();
  result.fold_scores.reserve(splits.size());
  for (const auto& split : splits) {
    Stopwatch fold_timer;
    Pipeline fold_pipeline = pipeline;  // deep copy: folds are independent
    const Dataset train = data.select(split.train);
    const Dataset test = data.select(split.test);
    fold_pipeline.fit(train.X, train.y);
    const auto predictions = fold_pipeline.predict(test.X);
    result.fold_scores.push_back(score(metric, test.y, predictions));
    fold_seconds.observe(fold_timer.elapsed_seconds());
  }
  std::tie(result.mean_score, result.stddev) =
      mean_stddev(result.fold_scores);
  return result;
}

namespace {

/// One fold's materialized train/test split, shared by every candidate.
struct FoldData {
  Dataset train;
  Dataset test;
};

std::size_t matrix_bytes(const Matrix& m) {
  return m.size() * sizeof(double) + sizeof(Matrix);
}

/// Scores candidate x fold with transformer-prefix memoization.
///
/// The cached unit is the pair (transformed train X, transformed test X)
/// after each cumulative transformer prefix, keyed by fold + the prefix's
/// canonical specs. Transformers are deterministic, so the memoized
/// matrices are exactly what Pipeline::fit/predict would recompute —
/// scores are bit-identical with the cache on or off. The estimator stage
/// is never cached (it IS the candidate).
double score_tabular_fold(const TEGraph& graph,
                          const TEGraph::Candidate& candidate,
                          const FoldData& fold_data, std::size_t fold,
                          PrefixCache& prefixes, Metric metric,
                          bool compile_plans) {
  using Transformed = std::pair<Matrix, Matrix>;  // (train X, test X)
  Pipeline pipeline = graph.instantiate(candidate);
  if (compile_plans) {
    // The compiled plan depends only on the transformer chain, so sibling
    // candidates (and every fold) memoize one plan per chain; the key's
    // cumulative specs are the same fingerprint that keys prefix reuse.
    std::string plan_key = "plan|tab";
    for (std::size_t t = 0; t < pipeline.n_transformers(); ++t) {
      plan_key += "|" + pipeline.transformer(t).spec();
    }
    std::shared_ptr<const CompiledTabularPlan> plan =
        prefixes.get<CompiledTabularPlan>(plan_key);
    if (plan == nullptr) {
      plan = compile_tabular_plan(pipeline);
      prefixes.insert(plan_key, plan, plan->bytes());
    }
    return execute_tabular_plan(*plan, pipeline, fold_data.train.X,
                                fold_data.train.y, fold_data.test.X,
                                fold_data.test.y, fold, prefixes, metric);
  }
  const Matrix* train_X = &fold_data.train.X;
  const Matrix* test_X = &fold_data.test.X;
  std::shared_ptr<const Transformed> held;  // keeps *train_X/*test_X alive
  std::string prefix_key = "tab|f" + std::to_string(fold);
  {
    // Phase attribution: each phase is one scope around the whole
    // lookup-or-compute block (hit and miss paths alike, per the profiler
    // determinism rules).
    const obs::Region phase(obs::Phase::kPrepare);
    for (std::size_t t = 0; t < pipeline.n_transformers(); ++t) {
      prefix_key += "|" + pipeline.transformer(t).spec();
      std::shared_ptr<const Transformed> stage =
          prefixes.get<Transformed>(prefix_key);
      if (stage == nullptr) {
        Transformer& tr = pipeline.transformer(t);
        tr.fit(*train_X, fold_data.train.y);
        auto computed = std::make_shared<Transformed>(tr.transform(*train_X),
                                                      tr.transform(*test_X));
        // Inserted only after the full stage fit+transform succeeded — a
        // throwing candidate leaves no partial entry behind.
        prefixes.insert(prefix_key, computed,
                        matrix_bytes(computed->first) +
                            matrix_bytes(computed->second));
        stage = std::move(computed);
      }
      held = std::move(stage);
      train_X = &held->first;
      test_X = &held->second;
    }
  }
  Estimator& estimator = pipeline.estimator();
  {
    const obs::Region phase(obs::Phase::kFit);
    estimator.fit(*train_X, fold_data.train.y);
  }
  const obs::Region phase(obs::Phase::kScore);
  return score(metric, fold_data.test.y, estimator.predict(*test_X));
}

}  // namespace

GraphEvaluator::GraphEvaluator(EvalOptions options)
    : options_(std::move(options)) {}

std::string GraphEvaluator::cache_key(const Dataset& data,
                                      const std::string& candidate_spec,
                                      const CrossValidator& cv,
                                      Metric metric) {
  return hash_to_hex(fingerprint(data)) + "|" + candidate_spec + "|" +
         cv.spec() + "|" + metric_name(metric);
}

EvaluationReport GraphEvaluator::evaluate(const TEGraph& graph,
                                          const Dataset& data,
                                          const CrossValidator& cv) const {
  const auto candidates = graph.enumerate_candidates();
  require(!candidates.empty(), "GraphEvaluator: graph has no candidates");
  data.validate();
  const auto splits = cv.splits(data.n_samples());
  require(!splits.empty(), "cross_validate: CV produced no splits");

  // Materialize each fold's train/test datasets once, up front — the old
  // per-candidate cross_validate re-selected them for every candidate.
  std::vector<FoldData> folds;
  folds.reserve(splits.size());
  for (const auto& split : splits) {
    folds.push_back(FoldData{data.select(split.train), data.select(split.test)});
  }

  const bool cooperative = options_.cache != nullptr;
  std::vector<EvalEngine::Candidate> engine_candidates;
  engine_candidates.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EvalEngine::Candidate ec;
    ec.spec = graph.candidate_spec(candidates[i]);
    ec.key = cooperative ? cache_key(data, ec.spec, cv, options_.metric)
                         : std::string();
    ec.score_fold = [this, &graph, &candidates, &folds, i](
                        std::size_t fold, PrefixCache& prefixes) {
      return score_tabular_fold(graph, candidates[i], folds[fold], fold,
                                prefixes, options_.metric,
                                options_.compile_plans);
    };
    engine_candidates.push_back(std::move(ec));
  }

  EvalEngine engine(options_);
  return engine.run(std::move(engine_candidates), splits.size());
}

Pipeline GraphEvaluator::refit_best(const TEGraph& graph,
                                    const EvaluationReport& report,
                                    const Dataset& data) {
  // Re-derive the best candidate by matching spec (reports do not own the
  // candidate objects; specs are canonical and unique per candidate).
  const auto candidates = graph.enumerate_candidates();
  for (const auto& candidate : candidates) {
    if (graph.candidate_spec(candidate) == report.best().spec) {
      Pipeline p = graph.instantiate(candidate);
      p.fit(data.X, data.y);
      return p;
    }
  }
  throw StateError("GraphEvaluator::refit_best: best candidate not found");
}

}  // namespace coda
