#include "src/core/plan_compiler.h"

#include <cmath>
#include <utility>

#include "src/ml/scalers.h"
#include "src/obs/obs.h"

namespace coda {
namespace {

struct PlanCounters {
  obs::Counter& compiled = obs::counter("eval.plan.compiled");
  obs::Counter& fused = obs::counter("eval.plan.fused_stages");
  obs::Counter& fallback = obs::counter("eval.plan.fallback");
};

PlanCounters& plan_counters() {
  static PlanCounters c;
  return c;
}

// Applies `chain` to every element of `base` in one pass.
Matrix apply_chain(const FusedChain& chain, const Matrix& base) {
  Matrix out(base.rows(), base.cols());
  for (std::size_t r = 0; r < base.rows(); ++r) {
    const double* src = base.row_ptr(r);
    double* dst = out.row_ptr(r);
    for (std::size_t c = 0; c < base.cols(); ++c) {
      dst[c] = chain.apply(src[c], c);
    }
  }
  return out;
}

std::size_t matrix_bytes(const Matrix& m) {
  return m.size() * sizeof(double) + sizeof(Matrix);
}

}  // namespace

void record_plan_compiled(std::size_t n_fused, std::size_t n_fallback) {
  PlanCounters& c = plan_counters();
  c.compiled.inc();
  if (n_fused > 0) c.fused.inc(n_fused);
  if (n_fallback > 0) c.fallback.inc(n_fallback);
}

bool lowerable_scaler(const Transformer& t) {
  return dynamic_cast<const StandardScaler*>(&t) != nullptr ||
         dynamic_cast<const MinMaxScaler*>(&t) != nullptr ||
         dynamic_cast<const RobustScaler*>(&t) != nullptr ||
         dynamic_cast<const NoOp*>(&t) != nullptr;
}

FusedAffine lower_scaler(const Transformer& t) {
  FusedAffine out;
  if (const auto* s = dynamic_cast<const StandardScaler*>(&t)) {
    require_state(!s->means().empty(), "lower_scaler: scaler not fitted");
    out.shift = s->means();
    out.div = s->scales();
    return out;
  }
  if (const auto* s = dynamic_cast<const MinMaxScaler*>(&t)) {
    require_state(!s->mins().empty(), "lower_scaler: scaler not fitted");
    out.shift = s->mins();
    out.div = s->ranges();
    return out;
  }
  if (const auto* s = dynamic_cast<const RobustScaler*>(&t)) {
    require_state(!s->medians().empty(), "lower_scaler: scaler not fitted");
    out.shift = s->medians();
    out.div = s->iqrs();
    return out;
  }
  require(dynamic_cast<const NoOp*>(&t) != nullptr,
          "lower_scaler: '" + t.name() + "' has no fused lowering");
  out.identity = true;
  return out;
}

FusedAffine fit_affine_virtual(const Transformer& t, const Matrix& base,
                               const FusedChain& chain) {
  require(base.rows() > 0, t.name() + ": empty input");
  const std::size_t rows = base.rows();
  const std::size_t cols = base.cols();
  FusedAffine out;

  if (dynamic_cast<const NoOp*>(&t) != nullptr) {
    out.identity = true;
    return out;
  }
  if (dynamic_cast<const StandardScaler*>(&t) != nullptr) {
    // Mirrors Matrix::col_means / col_stddevs on the virtual view: per
    // column, sum over ascending rows, divide once; then the squared
    // deviations in the same order against those exact means.
    std::vector<double> means(cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = base.row_ptr(r);
      for (std::size_t c = 0; c < cols; ++c) means[c] += chain.apply(src[c], c);
    }
    for (double& m : means) m /= static_cast<double>(rows);
    std::vector<double> sds(cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* src = base.row_ptr(r);
      for (std::size_t c = 0; c < cols; ++c) {
        const double d = chain.apply(src[c], c) - means[c];
        sds[c] += d * d;
      }
    }
    for (double& s : sds) {
      s = std::sqrt(s / static_cast<double>(rows));
      if (s == 0.0) s = 1.0;  // constant column: leave centred at zero
    }
    out.shift = std::move(means);
    out.div = std::move(sds);
    return out;
  }
  if (dynamic_cast<const MinMaxScaler*>(&t) != nullptr) {
    out.shift.assign(cols, 0.0);
    out.div.assign(cols, 1.0);
    for (std::size_t c = 0; c < cols; ++c) {
      double lo = chain.apply(base(0, c), c);
      double hi = lo;
      for (std::size_t r = 1; r < rows; ++r) {
        const double v = chain.apply(base(r, c), c);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      out.shift[c] = lo;
      out.div[c] = (hi - lo) == 0.0 ? 1.0 : hi - lo;
    }
    return out;
  }
  require(dynamic_cast<const RobustScaler*>(&t) != nullptr,
          "fit_affine_virtual: '" + t.name() + "' has no fused lowering");
  out.shift.assign(cols, 0.0);
  out.div.assign(cols, 1.0);
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<double> col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = chain.apply(base(r, c), c);
    out.shift[c] = quantile(col, 0.5);
    const double iqr = quantile(col, 0.75) - quantile(col, 0.25);
    out.div[c] = iqr == 0.0 ? 1.0 : iqr;
  }
  return out;
}

std::size_t CompiledTabularPlan::bytes() const {
  std::size_t total = sizeof(CompiledTabularPlan);
  for (const Stage& s : stages) total += sizeof(Stage) + s.spec.size();
  return total;
}

std::shared_ptr<const CompiledTabularPlan> compile_tabular_plan(
    const Pipeline& pipeline) {
  auto plan = std::make_shared<CompiledTabularPlan>();
  plan->stages.reserve(pipeline.n_transformers());
  for (std::size_t t = 0; t < pipeline.n_transformers(); ++t) {
    const Transformer& tr = pipeline.transformer(t);
    CompiledTabularPlan::Stage stage;
    stage.spec = tr.spec();
    stage.fused = lowerable_scaler(tr);
    if (stage.fused) {
      ++plan->n_fused;
    } else {
      ++plan->n_fallback;
    }
    plan->stages.push_back(std::move(stage));
  }
  record_plan_compiled(plan->n_fused, plan->n_fallback);
  return plan;
}

double execute_tabular_plan(const CompiledTabularPlan& plan,
                            Pipeline& pipeline, const Matrix& train_X,
                            const std::vector<double>& train_y,
                            const Matrix& test_X,
                            const std::vector<double>& test_y,
                            std::size_t fold, PrefixCache& prefixes,
                            Metric metric) {
  using Transformed = std::pair<Matrix, Matrix>;  // (train X, test X)
  require(plan.stages.size() == pipeline.n_transformers(),
          "execute_tabular_plan: plan does not match pipeline");
  const Matrix* cur_train = &train_X;
  const Matrix* cur_test = &test_X;
  std::shared_ptr<const Transformed> held;  // keeps boundary matrices alive
  std::string key = "tabplan|f" + std::to_string(fold);

  // Walk segments: a maximal run of fused stages, optionally terminated by
  // one interpreted stage. Each segment ends at a materialized boundary,
  // which is the memoized unit (interpreted execution memoizes per stage;
  // fused segments have no per-stage output to share).
  // Phase attribution: the whole segment walk is the "prepare" phase — one
  // scope around lookups and computes alike, per the profiler determinism
  // rules.
  {
    const obs::Region phase(obs::Phase::kPrepare);
    std::size_t t = 0;
    const std::size_t n = plan.stages.size();
    while (t < n) {
      std::size_t run_end = t;
      while (run_end < n && plan.stages[run_end].fused) ++run_end;
      const bool has_fallback = run_end < n;
      const std::size_t seg_end = has_fallback ? run_end + 1 : run_end;
      for (std::size_t u = t; u < seg_end; ++u) {
        key += "|" + plan.stages[u].spec;
      }
      std::shared_ptr<const Transformed> boundary =
          prefixes.get<Transformed>(key);
      if (boundary == nullptr) {
        FusedChain chain;
        chain.stages.reserve(run_end - t);
        for (std::size_t u = t; u < run_end; ++u) {
          chain.stages.push_back(
              fit_affine_virtual(pipeline.transformer(u), *cur_train, chain));
        }
        Matrix seg_train;
        Matrix seg_test;
        if (has_fallback) {
          Transformer& tr = pipeline.transformer(run_end);
          if (chain.empty()) {
            tr.fit(*cur_train, train_y);
            seg_train = tr.transform(*cur_train);
            seg_test = tr.transform(*cur_test);
          } else {
            const Matrix mat_train = apply_chain(chain, *cur_train);
            const Matrix mat_test = apply_chain(chain, *cur_test);
            tr.fit(mat_train, train_y);
            seg_train = tr.transform(mat_train);
            seg_test = tr.transform(mat_test);
          }
        } else {
          seg_train = apply_chain(chain, *cur_train);
          seg_test = apply_chain(chain, *cur_test);
        }
        auto computed = std::make_shared<Transformed>(std::move(seg_train),
                                                      std::move(seg_test));
        // Inserted only after the whole segment succeeded — a throwing stage
        // leaves no partial entry behind (same rule as the interpreted path).
        prefixes.insert(key, computed,
                        matrix_bytes(computed->first) +
                            matrix_bytes(computed->second));
        boundary = std::move(computed);
      }
      held = std::move(boundary);
      cur_train = &held->first;
      cur_test = &held->second;
      t = seg_end;
    }
  }

  Estimator& estimator = pipeline.estimator();
  {
    const obs::Region phase(obs::Phase::kFit);
    estimator.fit(*cur_train, train_y);
  }
  const obs::Region phase(obs::Phase::kScore);
  return score(metric, test_y, estimator.predict(*cur_test));
}

}  // namespace coda
