// Tests for the extension components: LDA, kernel PCA, the iterative
// (MICE-style) imputer, Gaussian Naive Bayes, and nested cross-validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/nested_cv.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/imputers.h"
#include "src/ml/iterative_imputer.h"
#include "src/ml/kernel_pca.h"
#include "src/ml/lda.h"
#include "src/ml/linear.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/random_forest.h"
#include "src/ml/scalers.h"
#include "src/obs/metrics.h"
#include "src/util/random.h"

namespace coda {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- Cholesky helpers ----------------------------------------------------

TEST(Cholesky, FactorizesKnownMatrix) {
  Matrix a{{4, 2}, {2, 3}};
  const Matrix l = cholesky(a);
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(l(1, 0), 1.0);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
  // Reconstruct.
  const Matrix rebuilt = l.multiply(l.transposed());
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-12);
    }
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3 and -1
  EXPECT_THROW(cholesky(a), InvalidArgument);
}

TEST(Cholesky, SubstitutionSolves) {
  Matrix a{{4, 2}, {2, 3}};
  const Matrix l = cholesky(a);
  // Solve A x = b via L y = b, L^T x = y.
  const std::vector<double> b{10, 8};
  const auto y = forward_substitute(l, b);
  const auto x = back_substitute_transposed(l, y);
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-12);
  EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-12);
}

// --- LDA -------------------------------------------------------------------

TEST(Lda, SeparatesClassesBetterThanPca) {
  // Two classes separated along one direction, with a much higher-variance
  // irrelevant direction: PCA picks the noise, LDA picks the separation.
  Rng rng(71);
  Matrix X(300, 2);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    const bool positive = i % 2 == 0;
    y[i] = positive ? 1.0 : 0.0;
    X(i, 0) = rng.normal(positive ? 1.5 : -1.5, 0.5);  // separating axis
    X(i, 1) = rng.normal(0.0, 10.0);                   // loud noise axis
  }
  LinearDiscriminantAnalysis lda;
  lda.fit(X, y);
  const Matrix projected = lda.transform(X);
  ASSERT_EQ(projected.cols(), 1u);
  // Class means in the projected space must be well separated relative to
  // the within-class spread.
  double m0 = 0, m1 = 0, n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    (y[i] == 1.0 ? m1 : m0) += projected(i, 0);
    (y[i] == 1.0 ? n1 : n0) += 1.0;
  }
  m0 /= n0;
  m1 /= n1;
  double spread = 0.0;
  for (std::size_t i = 0; i < 300; ++i) {
    const double m = y[i] == 1.0 ? m1 : m0;
    spread += (projected(i, 0) - m) * (projected(i, 0) - m);
  }
  spread = std::sqrt(spread / 300.0);
  EXPECT_GT(std::abs(m1 - m0), 3.0 * spread);

  // The discriminant direction is essentially the separating axis.
  const auto& w = lda.components();
  EXPECT_GT(std::abs(w(0, 0)), 5.0 * std::abs(w(1, 0)));
}

TEST(Lda, Validation) {
  LinearDiscriminantAnalysis lda;
  Matrix X{{1, 2}, {3, 4}};
  EXPECT_THROW(lda.fit(X, {1.0, 1.0}), InvalidArgument);  // one class
  EXPECT_THROW(lda.transform(X), StateError);
}

TEST(Lda, WorksInPipelineAsTransformer) {
  ClassificationConfig cfg;
  cfg.n_samples = 200;
  cfg.n_features = 6;
  const auto d = make_classification(cfg);
  Pipeline p;
  p.add_transformer(std::make_unique<LinearDiscriminantAnalysis>());
  p.set_estimator(std::make_unique<GaussianNaiveBayes>());
  p.fit(d.X, d.y);
  EXPECT_GT(accuracy(d.y, p.predict(d.X)), 0.85);
}

// --- Kernel PCA -------------------------------------------------------------

TEST(KernelPca, UnfoldsConcentricCircles) {
  // Two concentric circles are not linearly separable in 2-D; in RBF
  // kernel space the first components separate them by radius.
  Rng rng(72);
  Matrix X(200, 2);
  std::vector<double> radius(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const double r = i % 2 == 0 ? 1.0 : 3.0;
    const double angle = rng.uniform(0.0, 2.0 * 3.14159265);
    radius[i] = r;
    X(i, 0) = r * std::cos(angle) + rng.normal(0.0, 0.05);
    X(i, 1) = r * std::sin(angle) + rng.normal(0.0, 0.05);
  }
  KernelPCA kpca;
  kpca.set_param("n_components", std::int64_t{2});
  kpca.set_param("gamma", 0.5);
  kpca.fit(X, {});
  const Matrix projected = kpca.transform(X);
  // A simple threshold on the first kernel component should separate the
  // rings almost perfectly.
  double inner_mean = 0, outer_mean = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    (radius[i] < 2.0 ? inner_mean : outer_mean) += projected(i, 0);
  }
  inner_mean /= 100.0;
  outer_mean /= 100.0;
  const double midpoint = (inner_mean + outer_mean) / 2.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const bool predicted_inner =
        (projected(i, 0) > midpoint) == (inner_mean > midpoint);
    if (predicted_inner == (radius[i] < 2.0)) ++correct;
  }
  EXPECT_GT(correct, 190u);
}

TEST(KernelPca, EigenvaluesDescendAndShapeHolds) {
  RegressionConfig cfg;
  cfg.n_samples = 60;
  cfg.n_features = 4;
  cfg.n_informative = 4;
  const auto d = make_regression(cfg);
  KernelPCA kpca;
  kpca.set_param("n_components", std::int64_t{3});
  kpca.fit(d.X, {});
  const auto projected = kpca.transform(d.X);
  EXPECT_EQ(projected.rows(), 60u);
  EXPECT_EQ(projected.cols(), 3u);
  const auto& ev = kpca.eigenvalues();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i - 1], ev[i]);
  }
}

TEST(KernelPca, Validation) {
  KernelPCA kpca;
  EXPECT_THROW(kpca.transform(Matrix(2, 2)), StateError);
  kpca.set_param("n_components", std::int64_t{10});
  EXPECT_THROW(kpca.fit(Matrix(3, 2), {}), InvalidArgument);
}

// --- Iterative imputer -------------------------------------------------------

TEST(IterativeImputer, BeatsMeanImputationOnCorrelatedColumns) {
  // Column 2 = 2*col0 - col1: chained regression can reconstruct missing
  // entries almost exactly, mean imputation cannot.
  Rng rng(73);
  Matrix complete(300, 3);
  for (std::size_t i = 0; i < 300; ++i) {
    complete(i, 0) = rng.normal();
    complete(i, 1) = rng.normal();
    complete(i, 2) = 2.0 * complete(i, 0) - complete(i, 1);
  }
  Matrix holey = complete;
  std::vector<std::pair<std::size_t, std::size_t>> holes;
  for (std::size_t i = 0; i < 300; i += 7) {
    holey(i, 2) = kNaN;
    holes.emplace_back(i, 2);
  }

  IterativeImputer mice;
  mice.fit(holey, {});
  const Matrix mice_filled = mice.transform(holey);
  SimpleImputer mean;
  mean.fit(holey, {});
  const Matrix mean_filled = mean.transform(holey);

  double mice_err = 0.0, mean_err = 0.0;
  for (const auto& [r, c] : holes) {
    mice_err += std::abs(mice_filled(r, c) - complete(r, c));
    mean_err += std::abs(mean_filled(r, c) - complete(r, c));
  }
  EXPECT_LT(mice_err, 0.1 * mean_err);
}

TEST(IterativeImputer, HandlesNewDataWithMissing) {
  Rng rng(74);
  Matrix train(100, 2);
  for (std::size_t i = 0; i < 100; ++i) {
    train(i, 0) = rng.normal();
    train(i, 1) = 3.0 * train(i, 0);
  }
  IterativeImputer mice;
  mice.fit(train, {});
  Matrix probe{{2.0, kNaN}};
  const Matrix filled = mice.transform(probe);
  EXPECT_NEAR(filled(0, 1), 6.0, 0.2);
  EXPECT_EQ(count_missing(filled), 0u);
}

TEST(IterativeImputer, FullyMissingColumnThrows) {
  Matrix X{{kNaN, 1.0}, {kNaN, 2.0}};
  IterativeImputer mice;
  EXPECT_THROW(mice.fit(X, {}), InvalidArgument);
}

// --- Gaussian Naive Bayes -----------------------------------------------------

TEST(GaussianNb, SeparatesGaussianBlobs) {
  ClassificationConfig cfg;
  cfg.n_samples = 400;
  cfg.class_separation = 2.5;
  const auto d = make_classification(cfg);
  GaussianNaiveBayes nb;
  nb.fit(d.X, d.y);
  const auto scores = nb.predict(d.X);
  for (const double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_GT(accuracy(d.y, scores), 0.9);
  EXPECT_GT(auc(d.y, scores), 0.95);
}

TEST(GaussianNb, PriorReflectsImbalance) {
  // With identical likelihoods, predictions follow the class prior.
  Rng rng(75);
  Matrix X(200, 1);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    X(i, 0) = rng.normal();       // same distribution for both classes
    y[i] = i < 180 ? 1.0 : 0.0;   // 90% positive
  }
  GaussianNaiveBayes nb;
  nb.fit(X, y);
  const auto scores = nb.predict(X);
  double mean_score = 0.0;
  for (const double s : scores) mean_score += s;
  EXPECT_GT(mean_score / 200.0, 0.75);
}

TEST(GaussianNb, Validation) {
  GaussianNaiveBayes nb;
  Matrix X{{1}, {2}};
  EXPECT_THROW(nb.fit(X, {1.0, 1.0}), InvalidArgument);   // one class
  EXPECT_THROW(nb.fit(X, {0.0, 2.0}), InvalidArgument);   // non-binary
  EXPECT_THROW(nb.predict(X), StateError);
}

// --- Nested cross-validation ----------------------------------------------------

TEST(NestedCv, ProducesPerFoldWinnersAndHonestScores) {
  RegressionConfig cfg;
  cfg.n_samples = 160;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  const auto d = make_regression(cfg);

  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  g.add_regression_models(std::move(models));

  EvalOptions config;
  config.metric = Metric::kRmse;
  config.threads = 1;
  const auto result =
      nested_cross_validate(g, d, KFold(4, true, 5), KFold(3, true, 9),
                            config);
  EXPECT_EQ(result.outer_scores.size(), 4u);
  EXPECT_EQ(result.selected_specs.size(), 4u);
  EXPECT_GT(result.mean_score, 0.0);
  EXPECT_GE(result.stddev, 0.0);
  for (const auto& spec : result.selected_specs) {
    EXPECT_FALSE(spec.empty());
  }
  // The outer (honest) estimate should not be dramatically better than the
  // inner selection score — selection bias goes the other way.
  EXPECT_GT(result.mean_score, 0.5 * result.mean_inner_score);
}

TEST(NestedCv, RunsEachInnerSearchOnce) {
  RegressionConfig cfg;
  cfg.n_samples = 96;
  cfg.n_features = 3;
  cfg.n_informative = 2;
  const auto d = make_regression(cfg);
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  g.add_regression_models(std::move(models));
  const std::size_t candidates = g.enumerate_candidates().size();

  EvalOptions config;  // no cache: every inner fold is computed
  config.threads = 1;
  const auto& folds = obs::counter("eval.candidate.folds");
  const std::uint64_t before = folds.value();
  (void)nested_cross_validate(g, d, KFold(4), KFold(3), config);
  // One inner search per outer fold; the winner is refit from its report.
  EXPECT_EQ(folds.value() - before, 4u * candidates * 3u);
}

}  // namespace
}  // namespace coda
