// Property-style invariants across modules: graph combinatorics, metric
// algebra, delta-codec behaviour on adversarially structured data, retry
// backoff schedules, delta decode robustness, and scaler idempotence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/core/evaluator.h"
#include "src/core/metrics.h"
#include "src/core/te_graph.h"
#include "src/data/synthetic.h"
#include "src/dist/delta.h"
#include "src/ml/linear.h"
#include "src/ml/pca.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/util/error.h"
#include "src/util/random.h"
#include "src/util/retry.h"

namespace coda {
namespace {

// --- TE-Graph combinatorics -------------------------------------------------

class GraphShapeProperty
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(GraphShapeProperty, PathCountIsProductOfStageSizes) {
  const auto shape = GetParam();
  TEGraph g;
  std::size_t expected = 1;
  std::size_t node_id = 0;
  for (std::size_t s = 0; s < shape.size(); ++s) {
    std::vector<StageOption> options;
    const bool terminal = s + 1 == shape.size();
    for (std::size_t o = 0; o < shape[s]; ++o) {
      if (terminal) {
        auto model = std::make_unique<LinearRegression>();
        model->set_name("m" + std::to_string(node_id++));
        options.push_back(make_option(std::move(model)));
      } else {
        auto t = std::make_unique<NoOp>();
        t->set_name("t" + std::to_string(node_id++));
        options.push_back(make_option(std::move(t)));
      }
    }
    g.add_stage("stage" + std::to_string(s), std::move(options));
    expected *= shape[s];
  }
  EXPECT_EQ(g.count_paths(), expected);
  EXPECT_EQ(g.enumerate_candidates().size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphShapeProperty,
    ::testing::Values(std::vector<std::size_t>{1},
                      std::vector<std::size_t>{3},
                      std::vector<std::size_t>{2, 2},
                      std::vector<std::size_t>{4, 3, 3},   // Fig 3
                      std::vector<std::size_t>{2, 3, 4, 2},
                      std::vector<std::size_t>{1, 1, 1, 1, 5}));

// --- Metric algebra -----------------------------------------------------------

TEST(MetricProperties, RmseAndMaeScaleEquivariant) {
  Rng rng(91);
  std::vector<double> t(60), p(60), t2(60), p2(60);
  for (std::size_t i = 0; i < 60; ++i) {
    t[i] = rng.normal();
    p[i] = rng.normal();
    t2[i] = 3.5 * t[i];
    p2[i] = 3.5 * p[i];
  }
  EXPECT_NEAR(rmse(t2, p2), 3.5 * rmse(t, p), 1e-9);
  EXPECT_NEAR(mae(t2, p2), 3.5 * mae(t, p), 1e-9);
}

TEST(MetricProperties, ErrorsTranslationInvariant) {
  Rng rng(92);
  std::vector<double> t(60), p(60), t2(60), p2(60);
  for (std::size_t i = 0; i < 60; ++i) {
    t[i] = rng.normal();
    p[i] = rng.normal();
    t2[i] = t[i] + 100.0;
    p2[i] = p[i] + 100.0;
  }
  EXPECT_NEAR(rmse(t2, p2), rmse(t, p), 1e-9);
  EXPECT_NEAR(mae(t2, p2), mae(t, p), 1e-9);
  EXPECT_NEAR(median_absolute_error(t2, p2), median_absolute_error(t, p),
              1e-9);
}

TEST(MetricProperties, R2InvariantUnderAffineTargetMaps) {
  // R² compares against the mean predictor, so jointly rescaling/shifting
  // truth and prediction leaves it unchanged.
  Rng rng(93);
  std::vector<double> t(80), p(80), t2(80), p2(80);
  for (std::size_t i = 0; i < 80; ++i) {
    t[i] = rng.normal();
    p[i] = t[i] + rng.normal(0.0, 0.3);
    t2[i] = -2.0 * t[i] + 7.0;
    p2[i] = -2.0 * p[i] + 7.0;
  }
  EXPECT_NEAR(r2(t2, p2), r2(t, p), 1e-9);
}

TEST(MetricProperties, AucInvariantUnderMonotoneScoreMaps) {
  Rng rng(94);
  std::vector<double> t(100), s(100), s2(100);
  for (std::size_t i = 0; i < 100; ++i) {
    t[i] = rng.bernoulli(0.4) ? 1.0 : 0.0;
    s[i] = rng.uniform();
    s2[i] = std::tanh(3.0 * s[i]);  // strictly increasing map
  }
  EXPECT_NEAR(auc(t, s2), auc(t, s), 1e-12);
}

TEST(MetricProperties, MseIsSquaredRmse) {
  Rng rng(95);
  std::vector<double> t(40), p(40);
  for (std::size_t i = 0; i < 40; ++i) {
    t[i] = rng.normal();
    p[i] = rng.normal();
  }
  EXPECT_NEAR(mse(t, p), rmse(t, p) * rmse(t, p), 1e-12);
}

// --- Delta codec on structured (adversarial) content ------------------------

using dist::apply_delta;
using dist::compute_delta;

TEST(DeltaProperties, AllZerosCompressesToNearNothing) {
  const Bytes base(8192, 0);
  Bytes target(8192, 0);
  target[4000] = 1;
  const auto d = compute_delta(base, target);
  EXPECT_EQ(apply_delta(base, d), target);
  EXPECT_LT(d.encoded_size(), 512u);
}

TEST(DeltaProperties, PeriodicContentRoundTrips) {
  // Highly repetitive content gives the block index many collisions; the
  // codec must still reconstruct exactly.
  Bytes base(4096);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<std::uint8_t>(i % 7);
  }
  Bytes target = base;
  target.erase(target.begin() + 1000, target.begin() + 1100);  // deletion
  const auto d = compute_delta(base, target);
  EXPECT_EQ(apply_delta(base, d), target);
}

TEST(DeltaProperties, ReversedContentFallsBackGracefully) {
  Rng rng(96);
  Bytes base(4096);
  for (auto& b : base) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  Bytes target(base.rbegin(), base.rend());
  const auto d = compute_delta(base, target);
  EXPECT_EQ(apply_delta(base, d), target);  // correctness over compression
}

TEST(DeltaProperties, ConcatenationOfBaseWithItself) {
  Rng rng(97);
  Bytes base(2048);
  for (auto& b : base) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  Bytes target = base;
  target.insert(target.end(), base.begin(), base.end());
  const auto d = compute_delta(base, target);
  EXPECT_EQ(apply_delta(base, d), target);
  // Doubling should cost ~two COPY ops, not literals.
  EXPECT_LT(d.encoded_size(), base.size() / 2);
}

// --- Retry backoff schedules (fault tier, DESIGN.md §9) ----------------------

// The sweeps draw from coda::mix64: failures must reproduce from the fixed
// seeds, never from run-to-run randomness.
RetryPolicy policy_for_seed(std::uint64_t seed) {
  RetryPolicy p;
  p.seed = seed;
  p.max_attempts = 2 + mix64(seed) % 12;
  p.initial_backoff_seconds = 0.01 + 0.01 * (mix64(seed ^ 1) % 10);
  p.multiplier = 1.5 + 0.25 * (mix64(seed ^ 2) % 6);
  p.max_backoff_seconds = p.initial_backoff_seconds * 20.0;
  p.jitter_fraction = 0.1;  // within the monotonicity bound (multiplier-1)
  p.deadline_seconds = 5.0;
  return p;
}

TEST(RetryPolicyProperties, BackoffIsMonotoneAndCapped) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const RetryPolicy p = policy_for_seed(seed);
    ASSERT_NO_THROW(p.validate()) << "seed " << seed;
    double previous = 0.0;
    for (std::size_t k = 0; k + 1 < p.max_attempts; ++k) {
      const double wait = p.backoff_seconds(k);
      EXPECT_GE(wait, previous) << "seed " << seed << " retry " << k;
      EXPECT_GE(wait, p.initial_backoff_seconds)
          << "seed " << seed << " retry " << k;
      EXPECT_LE(wait, p.max_backoff_seconds)
          << "seed " << seed << " retry " << k;
      previous = wait;
    }
  }
}

TEST(RetryPolicyProperties, ScheduleRespectsAttemptAndDeadlineBudgets) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RetryPolicy p = policy_for_seed(seed);
    // Vary the deadline too, so some seeds are attempt-bound and others
    // deadline-bound.
    p.deadline_seconds =
        0.01 + 0.05 * static_cast<double>(mix64(seed ^ 3) % 40);
    BackoffSchedule schedule(p);
    double total = 0.0;
    std::size_t retries = 0;
    while (auto wait = schedule.next()) {
      total += *wait;
      ++retries;
      ASSERT_LT(retries, 1000u) << "runaway schedule, seed " << seed;
    }
    EXPECT_LE(retries + 1, p.max_attempts) << "seed " << seed;
    EXPECT_LE(total, p.deadline_seconds) << "seed " << seed;
    EXPECT_EQ(schedule.retries(), retries);
    EXPECT_DOUBLE_EQ(schedule.waited_seconds(), total);
  }
}

TEST(RetryPolicyProperties, IdenticalSeedsYieldIdenticalSequences) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const RetryPolicy p = policy_for_seed(seed);
    BackoffSchedule a(p);
    BackoffSchedule b(p);
    while (true) {
      const auto wa = a.next();
      const auto wb = b.next();
      ASSERT_EQ(wa.has_value(), wb.has_value()) << "seed " << seed;
      if (!wa) break;
      EXPECT_DOUBLE_EQ(*wa, *wb) << "seed " << seed;
    }
  }
  // And a different seed must perturb the jittered waits.
  RetryPolicy p;
  p.seed = 1;
  const double first = p.backoff_seconds(0);
  p.seed = 2;
  EXPECT_NE(first, p.backoff_seconds(0));
}

TEST(RetryPolicyProperties, ValidateRejectsOutOfRangeFields) {
  const RetryPolicy good;
  ASSERT_NO_THROW(good.validate());
  auto reject = [&](auto mutate) {
    RetryPolicy p;
    mutate(p);
    EXPECT_THROW(p.validate(), InvalidArgument);
  };
  reject([](RetryPolicy& p) { p.max_attempts = 0; });
  reject([](RetryPolicy& p) { p.initial_backoff_seconds = -0.1; });
  reject([](RetryPolicy& p) { p.multiplier = 0.5; });
  reject([](RetryPolicy& p) { p.max_backoff_seconds = 0.0; });
  reject([](RetryPolicy& p) { p.jitter_fraction = -0.1; });
  // Jitter beyond multiplier - 1 would break monotonicity.
  reject([](RetryPolicy& p) {
    p.multiplier = 1.5;
    p.jitter_fraction = 0.75;
  });
  reject([](RetryPolicy& p) { p.deadline_seconds = 0.0; });
}

// --- Delta decode/apply under hostile payloads -------------------------------

Bytes seeded_bytes(std::uint64_t seed, std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(mix64(seed + i));
  }
  return out;
}

TEST(DeltaProperties, RoundTripsAcrossSeededEdits) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Bytes base = seeded_bytes(seed, 256 + mix64(seed) % 512);
    Bytes target = base;
    // Mutate, insert and truncate to exercise COPY + ADD mixes.
    target[target.size() / 2] ^= 0xFF;
    target.insert(target.begin() + static_cast<std::ptrdiff_t>(
                                       mix64(seed ^ 9) % target.size()),
                  {1, 2, 3});
    target.resize(target.size() - mix64(seed ^ 7) % 32);
    const dist::Delta delta = compute_delta(base, target);
    EXPECT_EQ(apply_delta(base, delta), target) << "seed " << seed;
    const dist::Delta decoded = dist::Delta::deserialize(delta.serialize());
    EXPECT_EQ(apply_delta(base, decoded), target) << "seed " << seed;
  }
}

TEST(DeltaProperties, TruncatedPayloadsNeverDecodeSilently) {
  const Bytes base = seeded_bytes(21, 512);
  Bytes target = base;
  target[10] ^= 0x55;
  target.push_back(7);
  const Bytes wire = compute_delta(base, target).serialize();

  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const Bytes truncated(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      const dist::Delta d = dist::Delta::deserialize(truncated);
      // If a prefix happens to parse, applying it must still either
      // reconstruct exactly target_size bytes or throw — never crash.
      try {
        const Bytes out = apply_delta(base, d);
        EXPECT_EQ(out.size(), d.target_size) << "cut " << cut;
      } catch (const DecodeError&) {
      }
    } catch (const DecodeError&) {
      // The expected outcome for nearly every cut.
    }
  }
}

TEST(DeltaProperties, CorruptedPayloadsNeverDecodeSilently) {
  const Bytes base = seeded_bytes(22, 512);
  Bytes target = base;
  target[100] ^= 0x7;
  const Bytes wire = compute_delta(base, target).serialize();

  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Bytes corrupted = wire;
    const std::size_t flips = 1 + mix64(seed) % 4;
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = mix64(seed ^ (f + 1)) % corrupted.size();
      corrupted[at] ^= static_cast<std::uint8_t>(mix64(seed ^ (f + 77)));
    }
    try {
      const dist::Delta d = dist::Delta::deserialize(corrupted);
      const Bytes out = apply_delta(base, d);
      // A flip that survives decode+apply must still honour the size
      // contract; values may differ (deltas are not authenticated).
      EXPECT_EQ(out.size(), d.target_size) << "seed " << seed;
    } catch (const DecodeError&) {
      // Loud failure: the desired behaviour.
    }
  }
}

TEST(DeltaProperties, CopyBeyondBaseIsRejected) {
  const Bytes base = seeded_bytes(3, 16);
  dist::Delta hostile;
  hostile.target_size = 8;
  dist::DeltaOp op;
  op.kind = dist::DeltaOp::Kind::kCopy;
  op.offset = 4;
  op.length = 100;  // runs past the base
  hostile.ops.push_back(op);
  EXPECT_THROW(apply_delta(base, hostile), DecodeError);

  // Offset arithmetic must not wrap: offset + length overflows uint64.
  hostile.ops[0].offset = ~std::uint64_t{0} - 2;
  hostile.ops[0].length = 8;
  EXPECT_THROW(apply_delta(base, hostile), DecodeError);
}

TEST(DeltaProperties, HugeDeclaredSizesDoNotPreallocate) {
  // A hostile header declaring a huge target_size or op count must not
  // trigger an unbounded up-front allocation.
  const Bytes base = seeded_bytes(4, 16);
  dist::Delta hostile;
  hostile.target_size = ~std::uint64_t{0};
  dist::DeltaOp op;
  op.kind = dist::DeltaOp::Kind::kAdd;
  op.literal = {1, 2, 3};
  hostile.ops.push_back(op);
  // Reconstruction yields 3 bytes; the declared-size lie is a DecodeError,
  // not an allocation attempt.
  EXPECT_THROW(apply_delta(base, hostile), DecodeError);

  // A payload that is all ones decodes a huge op count against an almost
  // empty remainder — rejected before ops.reserve().
  const Bytes bogus(4 * sizeof(std::uint64_t), 0xFF);
  EXPECT_THROW(dist::Delta::deserialize(bogus), DecodeError);
}

// --- Randomized TE-Graphs: fused == interpreted (DESIGN.md §14) --------------

/// Deliberately has no fused lowering: the plan compiler recognizes
/// components by type, so even though centering is affine, this custom
/// transformer must fall back to interpreted execution.
class CenteringTransformer final : public Transformer {
 public:
  CenteringTransformer() : Transformer("centering") {}

  void fit(const Matrix& X, const std::vector<double>&) override {
    means_ = X.col_means();
  }

  Matrix transform(const Matrix& X) const override {
    Matrix out = X;
    for (std::size_t r = 0; r < out.rows(); ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        out(r, c) -= means_[c];
      }
    }
    return out;
  }

  std::unique_ptr<Component> clone() const override {
    return std::make_unique<CenteringTransformer>(*this);
  }

 private:
  std::vector<double> means_;
};

/// One seeded option: kinds 0-3 lower to fused affines, 4-5 are fallback.
std::unique_ptr<Transformer> seeded_transformer(std::uint64_t r,
                                                bool* fusable) {
  const std::uint64_t kind = r % 6;
  *fusable = kind < 4;
  std::unique_ptr<Transformer> t;
  switch (kind) {
    case 0: t = std::make_unique<StandardScaler>(); break;
    case 1: t = std::make_unique<MinMaxScaler>(); break;
    case 2: t = std::make_unique<RobustScaler>(); break;
    case 3: t = std::make_unique<NoOp>(); break;
    case 4: {
      auto pca = std::make_unique<PCA>();
      pca->set_param("n_components", std::int64_t{2});
      t = std::move(pca);
      break;
    }
    default: t = std::make_unique<CenteringTransformer>(); break;
  }
  return t;
}

/// Seeded random graph: 1-3 transformer stages x 1-3 options each, 1-2
/// estimators. Also reports, per transformer stage x option, whether that
/// option lowers (to predict the eval.plan.* counts exactly).
TEGraph seeded_graph(std::uint64_t seed,
                     std::vector<std::vector<bool>>* stage_fusable) {
  TEGraph g;
  stage_fusable->clear();
  const std::size_t depth = 1 + mix64(seed) % 3;
  std::size_t node_id = 0;
  for (std::size_t s = 0; s < depth; ++s) {
    const std::size_t width = 1 + mix64(seed ^ (s + 11)) % 3;
    std::vector<StageOption> options;
    std::vector<bool> fusable_row;
    for (std::size_t o = 0; o < width; ++o) {
      bool fusable = false;
      auto t = seeded_transformer(mix64(seed ^ (s * 17 + o + 31)), &fusable);
      t->set_name("t" + std::to_string(node_id++) + "_" + t->name());
      fusable_row.push_back(fusable);
      options.push_back(make_option(std::move(t)));
    }
    stage_fusable->push_back(std::move(fusable_row));
    g.add_stage("stage" + std::to_string(s), std::move(options));
  }
  std::vector<StageOption> models;
  const std::size_t n_models = 1 + mix64(seed ^ 97) % 2;
  for (std::size_t m = 0; m < n_models; ++m) {
    auto model = std::make_unique<LinearRegression>();
    model->set_name("m" + std::to_string(m));
    models.push_back(make_option(std::move(model)));
  }
  g.add_stage("model", std::move(models));
  return g;
}

TEST(RandomGraphProperties, FusedEqualsInterpretedAcrossSeeds) {
  RegressionConfig cfg;
  cfg.n_samples = 90;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  cfg.noise_stddev = 0.1;
  const Dataset data = make_regression(cfg);

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<std::vector<bool>> fusable;
    const TEGraph g = seeded_graph(seed, &fusable);

    const auto run = [&](bool compile_plans) {
      EvalOptions options;
      options.metric = Metric::kRmse;
      options.compile_plans = compile_plans;
      GraphEvaluator evaluator(options);
      return evaluator.evaluate(g, data, KFold(3));
    };
    const auto interpreted = run(false);
    const auto fused = run(true);
    ASSERT_EQ(interpreted.results.size(), fused.results.size());
    for (std::size_t i = 0; i < interpreted.results.size(); ++i) {
      const auto& a = interpreted.results[i];
      const auto& b = fused.results[i];
      SCOPED_TRACE(a.spec);
      EXPECT_EQ(a.spec, b.spec);
      EXPECT_EQ(a.failed, b.failed);
      ASSERT_EQ(a.fold_scores.size(), b.fold_scores.size());
      for (std::size_t f = 0; f < a.fold_scores.size(); ++f) {
        EXPECT_EQ(a.fold_scores[f], b.fold_scores[f]) << "fold " << f;
      }
    }
    EXPECT_EQ(interpreted.best().spec, fused.best().spec);
  }
}

TEST(RandomGraphProperties, FallbackStagesCountedExactly) {
  RegressionConfig cfg;
  cfg.n_samples = 70;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  const Dataset data = make_regression(cfg);

  const auto& compiled = obs::counter("eval.plan.compiled");
  const auto& fused_stages = obs::counter("eval.plan.fused_stages");
  const auto& fallback = obs::counter("eval.plan.fallback");

  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<std::vector<bool>> fusable;
    const TEGraph g = seeded_graph(seed, &fusable);

    // One plan per distinct transformer chain (estimators are not part of
    // the plan); stages are fully connected, so the chains are the
    // cartesian product of the transformer stages.
    std::uint64_t expect_plans = 1;
    for (const auto& row : fusable) expect_plans *= row.size();
    std::uint64_t expect_fused = 0, expect_fallback = 0;
    for (std::size_t s = 0; s < fusable.size(); ++s) {
      // Each option of stage s appears in (product of the other stages'
      // widths) chains.
      std::uint64_t siblings = 1;
      for (std::size_t o = 0; o < fusable.size(); ++o) {
        if (o != s) siblings *= fusable[o].size();
      }
      for (const bool f : fusable[s]) {
        (f ? expect_fused : expect_fallback) += siblings;
      }
    }

    EvalOptions options;
    options.metric = Metric::kRmse;
    options.compile_plans = true;
    options.threads = 1;  // deterministic compile counts (no racing misses)
    const std::uint64_t compiled0 = compiled.value();
    const std::uint64_t fused0 = fused_stages.value();
    const std::uint64_t fallback0 = fallback.value();
    GraphEvaluator evaluator(options);
    const auto report = evaluator.evaluate(g, data, KFold(3));
    for (const auto& r : report.results) {
      EXPECT_FALSE(r.failed) << r.spec << ": " << r.failure_message;
    }
    EXPECT_EQ(compiled.value() - compiled0, expect_plans);
    EXPECT_EQ(fused_stages.value() - fused0, expect_fused);
    EXPECT_EQ(fallback.value() - fallback0, expect_fallback);
  }
}

// --- Scaler idempotence -------------------------------------------------------

TEST(ScalerProperties, StandardScalingIsIdempotent) {
  Rng rng(98);
  Matrix X(100, 3);
  for (double& v : X.data()) v = rng.normal(5.0, 3.0);
  StandardScaler first;
  const Matrix once = first.fit_transform(X, {});
  StandardScaler second;
  const Matrix twice = second.fit_transform(once, {});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice.data()[i], once.data()[i], 1e-9);
  }
}

TEST(ScalerProperties, MinMaxIsIdempotent) {
  Rng rng(99);
  Matrix X(100, 2);
  for (double& v : X.data()) v = rng.uniform(-10.0, 50.0);
  MinMaxScaler first;
  const Matrix once = first.fit_transform(X, {});
  MinMaxScaler second;
  const Matrix twice = second.fit_transform(once, {});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice.data()[i], once.data()[i], 1e-12);
  }
}

}  // namespace
}  // namespace coda
