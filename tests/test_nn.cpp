// Tests for the neural-network substrate. The backbone is a finite-
// difference gradient check applied to every layer type — the strongest
// correctness evidence for hand-written backprop (Dense, activations,
// Conv1D with dilation and fused activations, MaxPool1D, LSTM with BPTT,
// SliceLastTimestep).
// The gradient checks and the training tests run once per GEMM dispatch
// target the host supports (tests/kernel_targets.h).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/nn/activations.h"
#include "src/nn/conv1d.h"
#include "src/nn/dense.h"
#include "src/nn/dropout.h"
#include "src/nn/loss.h"
#include "src/nn/lstm.h"
#include "src/nn/optimizer.h"
#include "src/nn/sequential.h"
#include "src/nn/slice.h"
#include "src/nn/trainer.h"
#include "src/util/random.h"
#include "tests/kernel_targets.h"

namespace coda::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

// Scalar objective: sum of squares of the layer output for input X.
double objective(Layer& layer, const Matrix& X) {
  const Matrix out = layer.forward(X, /*training=*/false);
  double s = 0.0;
  for (const double v : out.data()) s += v * v;
  return s;
}

// Analytic gradients via backward(2*out), compared against central finite
// differences for both the input and every parameter tensor.
void check_gradients(Layer& layer, const Matrix& X, double tolerance = 1e-5) {
  // Analytic pass.
  for (ParamTensor* p : layer.parameters()) p->zero_grad();
  const Matrix out = layer.forward(X, false);
  Matrix grad_out = out;
  for (double& v : grad_out.data()) v *= 2.0;
  const Matrix grad_input = layer.backward(grad_out);

  const double eps = 1e-5;

  // Input gradient.
  for (std::size_t i = 0; i < X.size(); ++i) {
    Matrix xp = X;
    Matrix xm = X;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double numeric =
        (objective(layer, xp) - objective(layer, xm)) / (2.0 * eps);
    EXPECT_NEAR(grad_input.data()[i], numeric,
                tolerance * std::max(1.0, std::abs(numeric)))
        << "input grad mismatch at flat index " << i;
  }

  // Parameter gradients.
  std::size_t tensor_index = 0;
  for (ParamTensor* p : layer.parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double saved = p->value.data()[i];
      p->value.data()[i] = saved + eps;
      const double up = objective(layer, X);
      p->value.data()[i] = saved - eps;
      const double down = objective(layer, X);
      p->value.data()[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "param tensor " << tensor_index << " grad mismatch at " << i;
    }
    ++tensor_index;
  }
}

class GradCheck : public OnEachTarget {};
CODA_ON_EACH_TARGET(GradCheck);

TEST_P(GradCheck, Dense) {
  Rng rng(1);
  Dense layer(4, 3, 7);
  check_gradients(layer, random_matrix(5, 4, rng));
}

TEST_P(GradCheck, ReLU) {
  Rng rng(2);
  ReLU layer;
  // Nudge inputs away from the kink at 0.
  Matrix X = random_matrix(4, 6, rng);
  for (double& v : X.data()) {
    if (std::abs(v) < 0.05) v = 0.1;
  }
  check_gradients(layer, X);
}

TEST_P(GradCheck, TanhLayer) {
  Rng rng(3);
  Tanh layer;
  check_gradients(layer, random_matrix(4, 5, rng));
}

TEST_P(GradCheck, SigmoidLayer) {
  Rng rng(4);
  Sigmoid layer;
  check_gradients(layer, random_matrix(4, 5, rng));
}

TEST_P(GradCheck, Conv1DCausal) {
  Rng rng(5);
  Conv1D layer(/*in=*/2, /*out=*/3, /*kernel=*/3, /*dilation=*/1,
               /*causal=*/true, 11);
  check_gradients(layer, random_matrix(3, 8 * 2, rng));
}

TEST_P(GradCheck, Conv1DDilated) {
  Rng rng(6);
  Conv1D layer(2, 2, 2, /*dilation=*/2, /*causal=*/true, 13);
  check_gradients(layer, random_matrix(2, 6 * 2, rng));
}

TEST_P(GradCheck, Conv1DValid) {
  Rng rng(7);
  Conv1D layer(1, 2, 3, 1, /*causal=*/false, 17);
  check_gradients(layer, random_matrix(2, 7, rng));
}

TEST_P(GradCheck, Conv1DFusedRelu) {
  Rng rng(14);
  Conv1D layer(2, 3, 2, /*dilation=*/2, /*causal=*/true, 29,
               kernels::Activation::kRelu);
  // The seed keeps every pre-activation away from relu's kink at 0, where
  // central differences would straddle it.
  const Matrix X = random_matrix(2, 6 * 2, rng);
  const Matrix pre = Conv1D(2, 3, 2, 2, true, 29).forward(X, false);
  for (const double v : pre.data()) ASSERT_GT(std::abs(v), 1e-3);
  check_gradients(layer, X);
}

TEST_P(GradCheck, Conv1DFusedTanh) {
  Rng rng(15);
  Conv1D layer(2, 3, 3, 1, /*causal=*/true, 31, kernels::Activation::kTanh);
  check_gradients(layer, random_matrix(3, 5 * 2, rng));
}

TEST_P(GradCheck, MaxPool1D) {
  Rng rng(8);
  MaxPool1D layer(/*channels=*/2, /*pool=*/2);
  check_gradients(layer, random_matrix(3, 8 * 2, rng));
}

TEST_P(GradCheck, SliceLastTimestep) {
  Rng rng(9);
  SliceLastTimestep layer(3);
  check_gradients(layer, random_matrix(2, 4 * 3, rng));
}

TEST_P(GradCheck, LstmLastHidden) {
  Rng rng(10);
  Lstm layer(/*input=*/2, /*hidden=*/3, /*return_sequences=*/false, 19);
  check_gradients(layer, random_matrix(2, 4 * 2, rng), 1e-4);
}

TEST_P(GradCheck, LstmReturnSequences) {
  Rng rng(11);
  Lstm layer(2, 2, /*return_sequences=*/true, 23);
  check_gradients(layer, random_matrix(2, 3 * 2, rng), 1e-4);
}

TEST(Conv1D, CausalityHolds) {
  // Changing the last timestep must not affect earlier outputs.
  Conv1D layer(1, 1, 3, 1, /*causal=*/true, 3);
  Rng rng(12);
  Matrix a = random_matrix(1, 8, rng);
  Matrix b = a;
  b(0, 7) += 5.0;
  const Matrix out_a = layer.forward(a, false);
  const Matrix out_b = layer.forward(b, false);
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_DOUBLE_EQ(out_a(0, t), out_b(0, t)) << "leaked future at t=" << t;
  }
  EXPECT_NE(out_a(0, 7), out_b(0, 7));
}

TEST(Conv1D, OutputLengths) {
  Conv1D causal(1, 1, 3, 2, true);
  EXPECT_EQ(causal.output_length(10), 10u);
  Conv1D valid(1, 1, 3, 2, false);
  EXPECT_EQ(valid.output_length(10), 6u);  // 10 - (3-1)*2
}

TEST(MaxPool1D, PicksMaxPerWindow) {
  MaxPool1D pool(1, 2);
  Matrix X(1, 6, {1, 5, 2, 2, 9, 0});
  const Matrix out = pool.forward(X, false);
  EXPECT_EQ(out.cols(), 3u);
  EXPECT_DOUBLE_EQ(out(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 9.0);
}

TEST(Dropout, IdentityAtInference) {
  Dropout layer(0.5, 3);
  Rng rng(13);
  const Matrix X = random_matrix(3, 4, rng);
  EXPECT_EQ(layer.forward(X, /*training=*/false), X);
}

TEST(Dropout, DropsAndRescalesDuringTraining) {
  Dropout layer(0.5, 3);
  Matrix X(1, 1000, 1.0);
  const Matrix out = layer.forward(X, /*training=*/true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (const double v : out.data()) {
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_DOUBLE_EQ(v, 2.0);  // 1/(1-0.5)
      sum += v;
    }
  }
  EXPECT_GT(zeros, 400u);
  EXPECT_LT(zeros, 600u);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // expectation preserved
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout layer(0.5, 3);
  Matrix X(1, 100, 1.0);
  const Matrix out = layer.forward(X, true);
  Matrix grad(1, 100, 1.0);
  const Matrix gin = layer.backward(grad);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(gin(0, i), out(0, i));  // same kept positions & scale
  }
}

TEST(Dropout, SameSeedGivesTheSameMask) {
  Dropout a(0.4, 17);
  Dropout b(0.4, 17);
  Dropout other(0.4, 18);
  const Matrix X(3, 50, 1.0);
  for (int step = 0; step < 3; ++step) {
    const Matrix out = a.forward(X, true);
    EXPECT_EQ(out, b.forward(X, true)) << "step " << step;
    EXPECT_NE(out, other.forward(X, true)) << "step " << step;
  }
}

TEST(Dropout, EachTrainingForwardDrawsANewMask) {
  Dropout layer(0.5, 3);
  const Matrix X(1, 200, 1.0);
  const Matrix first = layer.forward(X, true);
  layer.forward(X, false);  // inference neither draws nor advances
  EXPECT_NE(layer.forward(X, true), first);
}

TEST(Dropout, MaskIsAPureFunctionOfSeedCallAndIndex) {
  // Element i of a call does not depend on the batch shape: a 1 x 10 batch
  // sees the first 10 decisions of a 4 x 100 one at the same call count.
  Dropout small(0.3, 21);
  Dropout large(0.3, 21);
  const Matrix out_small = small.forward(Matrix(1, 10, 1.0), true);
  const Matrix out_large = large.forward(Matrix(4, 100, 1.0), true);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out_small(0, i), out_large(0, i)) << "element " << i;
  }
}

TEST(Dropout, CloneContinuesTheStream) {
  Dropout layer(0.5, 9);
  const Matrix X(2, 64, 1.0);
  layer.forward(X, true);
  layer.forward(X, true);
  const auto copy = layer.clone();
  const Matrix next = layer.forward(X, true);
  EXPECT_EQ(copy->forward(X, true), next);
  // A fresh layer with the same seed starts the stream over instead.
  Dropout fresh(0.5, 9);
  EXPECT_NE(fresh.forward(X, true), next);
}

TEST(Dropout, KeepFractionWithinBinomialBound) {
  // 200k draws over 4 calls: the kept count is Binomial(n, 1 - rate) and
  // must lie within 5 standard deviations of its mean for each rate.
  for (const double rate : {0.1, 0.25, 0.5, 0.8}) {
    Dropout layer(rate, 5);
    const Matrix X(50, 1000, 1.0);
    double kept = 0.0;
    for (int call = 0; call < 4; ++call) {
      const Matrix out = layer.forward(X, true);
      for (const double v : out.data()) {
        if (v != 0.0) {
          ++kept;
          EXPECT_EQ(v, 1.0 / (1.0 - rate));
        }
      }
    }
    const double n = 4.0 * X.size();
    const double mean = n * (1.0 - rate);
    const double sd = std::sqrt(n * rate * (1.0 - rate));
    EXPECT_NEAR(kept, mean, 5.0 * sd) << "rate " << rate;
  }
}

TEST(Loss, MseValueAndGradient) {
  MseLoss loss;
  Matrix pred(1, 2, {1.0, 3.0});
  Matrix target(1, 2, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(loss.value(pred, target), (1.0 + 9.0) / 2.0);
  const Matrix g = loss.gradient(pred, target);
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);   // 2*(1-0)/2
  EXPECT_DOUBLE_EQ(g(0, 1), 3.0);
}

TEST(Loss, BceValue) {
  BceLoss loss;
  Matrix pred(1, 2, {0.9, 0.1});
  Matrix target(1, 2, {1.0, 0.0});
  EXPECT_NEAR(loss.value(pred, target), -std::log(0.9), 1e-12);
}

TEST(Loss, BceClampsExtremes) {
  BceLoss loss;
  Matrix pred(1, 1, {0.0});
  Matrix target(1, 1, {1.0});
  EXPECT_TRUE(std::isfinite(loss.value(pred, target)));
  EXPECT_TRUE(std::isfinite(loss.gradient(pred, target)(0, 0)));
}

TEST(Optimizer, SgdStepsDownhill) {
  // Minimize f(w) = w^2 by hand-feeding gradients.
  ParamTensor w(1, 1);
  w.value(0, 0) = 4.0;
  Sgd sgd(0.1);
  for (int i = 0; i < 100; ++i) {
    w.grad(0, 0) = 2.0 * w.value(0, 0);
    sgd.step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 0.0, 1e-6);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  ParamTensor w(1, 1);
  w.value(0, 0) = 4.0;
  Adam adam(0.2);
  for (int i = 0; i < 200; ++i) {
    w.grad(0, 0) = 2.0 * (w.value(0, 0) - 1.5);
    adam.step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 1.5, 1e-3);
}

class SequentialOnTarget : public OnEachTarget {};
CODA_ON_EACH_TARGET(SequentialOnTarget);

TEST_P(SequentialOnTarget, TrainsLinearRegressionToLowLoss) {
  // y = 2x - 1 with a single Dense layer.
  Rng rng(21);
  Matrix X(64, 1);
  std::vector<double> y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    X(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = 2.0 * X(i, 0) - 1.0;
  }
  Sequential net;
  net.emplace<Dense>(1, 1, 5);
  MseLoss loss;
  Adam opt(0.05);
  TrainConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 16;
  const auto history = train(net, X, column_matrix(y), loss, opt, cfg);
  EXPECT_LT(history.back(), 1e-4);
  EXPECT_LT(history.back(), history.front());
}

TEST_P(SequentialOnTarget, NonlinearFitBeatsLinear) {
  // y = sin(3x): a ReLU MLP must clearly beat the best linear fit.
  Rng rng(22);
  Matrix X(128, 1);
  std::vector<double> y(128);
  for (std::size_t i = 0; i < 128; ++i) {
    X(i, 0) = rng.uniform(-1.5, 1.5);
    y[i] = std::sin(3.0 * X(i, 0));
  }
  Sequential net;
  net.emplace<Dense>(1, 24, 7);
  net.emplace<ReLU>();
  net.emplace<Dense>(24, 24, 9);
  net.emplace<ReLU>();
  net.emplace<Dense>(24, 1, 11);
  MseLoss loss;
  Adam opt(0.01);
  TrainConfig cfg;
  cfg.epochs = 300;
  cfg.batch_size = 32;
  const auto history = train(net, X, column_matrix(y), loss, opt, cfg);
  EXPECT_LT(history.back(), 0.02);  // linear best is ~0.2+
}

TEST_P(SequentialOnTarget, CopyIsDeep) {
  Sequential net;
  net.emplace<Dense>(2, 2, 3);
  Sequential copy = net;
  // Mutating the copy's weights must not affect the original.
  copy.parameters()[0]->value(0, 0) += 100.0;
  EXPECT_NE(copy.parameters()[0]->value(0, 0),
            net.parameters()[0]->value(0, 0));
}

TEST_P(SequentialOnTarget, ParameterCount) {
  Sequential net;
  net.emplace<Dense>(3, 4, 1);  // 12 + 4
  net.emplace<ReLU>();
  net.emplace<Dense>(4, 1, 2);  // 4 + 1
  EXPECT_EQ(net.parameter_count(), 21u);
}

TEST(Lstm, ShapeContracts) {
  Lstm last(3, 5, false);
  Rng rng(31);
  const Matrix X = random_matrix(4, 6 * 3, rng);
  EXPECT_EQ(last.forward(X, false).cols(), 5u);
  Lstm seq(3, 5, true);
  EXPECT_EQ(seq.forward(X, false).cols(), 6u * 5u);
}

TEST(Lstm, RejectsMisalignedInput) {
  Lstm layer(3, 2);
  EXPECT_THROW(layer.forward(Matrix(1, 7), false), InvalidArgument);
}

}  // namespace
}  // namespace coda::nn
