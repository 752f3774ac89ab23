// Numerical-equivalence suite for the shared compute kernels (DESIGN.md
// §11). The GEMMs must match the naive reference loops they replaced bit
// for bit in all three orientations (each output element is one
// ascending-k reduction), on every dispatch target the host supports: the
// KernelsOnTarget and GoldenCurves suites run once per target. The golden
// loss-curve tests at the bottom pin the entire training hot path: the
// curves were captured from the pre-kernel implementation at fixed seeds,
// and the kernel-backed layers reproduce them exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/kernels.h"
#include "src/data/matrix.h"
#include "src/nn/activations.h"
#include "src/nn/conv1d.h"
#include "src/nn/dense.h"
#include "src/nn/loss.h"
#include "src/nn/lstm.h"
#include "src/nn/optimizer.h"
#include "src/nn/sequential.h"
#include "src/nn/slice.h"
#include "src/nn/trainer.h"
#include "src/obs/metrics.h"
#include "src/util/error.h"
#include "src/util/random.h"
#include "tests/kernel_targets.h"

namespace coda {
namespace {

struct Shape {
  std::size_t m, n, k;
};

// Shapes chosen to exercise every edge of both paths: single rows/cols,
// sub-tile sizes and non-multiples of every target's register tile
// (including the narrow n the tile finishes with halving vector widths),
// shapes that cross the blocked path's 384-deep k panels and 240-wide
// column panels, and the shapes the forecaster fits and ml/linalg issue.
const std::vector<Shape> kShapes = {
    {1, 1, 1},     {1, 7, 3},     {5, 1, 9},     {8, 12, 4},
    {7, 13, 17},   {13, 29, 31},  {64, 64, 64},  {61, 67, 129},
    {3, 5, 500},   {9, 260, 40},  {130, 250, 70},
    // The fit shapes.
    {32, 64, 16},  {768, 64, 2},  {768, 64, 16}, {768, 16, 32},
    {16, 64, 736}, {32, 16, 768}, {32, 16, 64},  {768, 32, 16},
    // Narrow n, and ml/linalg's X^T y.
    {9, 1, 5},     {9, 2, 7},     {13, 15, 9},   {13, 17, 9},
    {11, 63, 5},   {11, 65, 5},   {8, 1, 240}};

std::vector<double> random_buffer(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(size);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

class KernelsOnTarget : public OnEachTarget {};
CODA_ON_EACH_TARGET(KernelsOnTarget);

TEST(Kernels, DispatchesToTheWidestSupportedTarget) {
  namespace kd = kernels::detail;
  kd::Target widest = kd::Target::kSse2;
  for (const kd::Target t : kd::kTargets) {
    if (kd::supported(t)) widest = t;
  }
  EXPECT_TRUE(kd::supported(kd::Target::kSse2));
  EXPECT_EQ(kd::active_target(), widest);
  for (const kd::Target t : kd::kTargets) {
    if (!kd::supported(t)) {
      EXPECT_THROW(kd::use_target(t), Error);
    }
  }
}

TEST_P(KernelsOnTarget, GemmNnBitIdenticalToReference) {
  for (const auto& s : kShapes) {
    const auto a = random_buffer(s.m * s.k, 11 + s.m);
    const auto b = random_buffer(s.k * s.n, 23 + s.n);
    // Nonzero initial C: the kernels accumulate, they do not overwrite.
    auto c_ref = random_buffer(s.m * s.n, 37 + s.k);
    auto c_ker = c_ref;
    kernels::reference::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                                c_ref.data(), s.n);
    kernels::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                     c_ker.data(), s.n);
    EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0)
        << "shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST_P(KernelsOnTarget, GemmTnBitIdenticalToReference) {
  for (const auto& s : kShapes) {
    const auto a = random_buffer(s.k * s.m, 41 + s.m);  // stored k x m
    const auto b = random_buffer(s.k * s.n, 43 + s.n);
    auto c_ref = random_buffer(s.m * s.n, 47 + s.k);
    auto c_ker = c_ref;
    kernels::reference::gemm_tn(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                                c_ref.data(), s.n);
    kernels::gemm_tn(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                     c_ker.data(), s.n);
    EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0)
        << "shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST_P(KernelsOnTarget, GemmNtBitIdenticalToReference) {
  // Each dot product runs in ascending k from 0 and is added to C at the
  // end, exactly as the reference does.
  for (const auto& s : kShapes) {
    const auto a = random_buffer(s.m * s.k, 53 + s.m);
    const auto b = random_buffer(s.n * s.k, 59 + s.n);  // stored n x k
    auto c_ref = random_buffer(s.m * s.n, 61 + s.k);
    auto c_ker = c_ref;
    kernels::reference::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                                c_ref.data(), s.n);
    kernels::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                     c_ker.data(), s.n);
    EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0)
        << "shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST_P(KernelsOnTarget, GemmHandlesStridedLeadingDimensions) {
  // Operate on interior submatrices of larger row-major buffers — the
  // layout the Lstm uses for per-timestep slices of a flattened batch.
  // Both paths write the same buffer, so a stray write outside the m x n
  // window (including the gap columns) shows as a difference.
  const std::size_t m = 9, n = 14, k = 21;
  const std::size_t lda = k + 5, ldb = n + 3, ldc = n + 7;
  const auto a = random_buffer(std::max(m, k) * lda, 71);
  const auto b = random_buffer(std::max(n, k) * ldb, 73);
  const auto c0 = random_buffer(m * ldc, 79);

  auto c_ref = c0;
  auto c_ker = c0;
  kernels::reference::gemm_nn(m, n, k, a.data() + 2, lda, b.data() + 1, ldb,
                              c_ref.data() + 3, ldc);
  kernels::gemm_nn(m, n, k, a.data() + 2, lda, b.data() + 1, ldb,
                   c_ker.data() + 3, ldc);
  EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0) << "nn";

  // TN: A stored k x m with lda >= m.
  c_ref = c0;
  c_ker = c0;
  kernels::reference::gemm_tn(m, n, k, a.data() + 2, lda, b.data() + 1, ldb,
                              c_ref.data() + 3, ldc);
  kernels::gemm_tn(m, n, k, a.data() + 2, lda, b.data() + 1, ldb,
                   c_ker.data() + 3, ldc);
  EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0) << "tn";

  // NT: B stored n x k with ldb >= k.
  const std::size_t ldbt = k + 4;
  const auto bt = random_buffer(n * ldbt, 75);
  c_ref = c0;
  c_ker = c0;
  kernels::reference::gemm_nt(m, n, k, a.data() + 2, lda, bt.data() + 1,
                              ldbt, c_ref.data() + 3, ldc);
  kernels::gemm_nt(m, n, k, a.data() + 2, lda, bt.data() + 1, ldbt,
                   c_ker.data() + 3, ldc);
  EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0) << "nt";
}

TEST_P(KernelsOnTarget, GemmNtOverwriteEqualsAccumulateIntoZeros) {
  // accumulate = false ignores C's old contents: the result is 0.0 + s.
  for (const auto& s : kShapes) {
    const auto a = random_buffer(s.m * s.k, 151 + s.m);
    const auto b = random_buffer(s.n * s.k, 157 + s.n);
    std::vector<double> c_ref(s.m * s.n, 0.0);
    auto c_ker = random_buffer(s.m * s.n, 163 + s.k);
    kernels::reference::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                                c_ref.data(), s.n);
    kernels::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                     c_ker.data(), s.n, {}, /*accumulate=*/false);
    EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0)
        << "shape " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST_P(KernelsOnTarget, FusedEpilogueMatchesSeparatePasses) {
  // C = act(C + A·B + bias) in one write-back must equal the reference
  // GEMM followed by a separate bias + activation pass, in every
  // orientation; n = 19 leaves a ragged edge on every target's tile.
  const std::size_t m = 17, n = 19, k = 23;
  const auto a = random_buffer(m * k, 83);   // m x k, or k x m for TN
  const auto b = random_buffer(k * n, 89);   // k x n, or n x k for NT
  const auto c0 = random_buffer(m * n, 91);
  const auto bias = random_buffer(n, 97);
  for (const auto act :
       {kernels::Activation::kNone, kernels::Activation::kRelu,
        kernels::Activation::kSigmoid, kernels::Activation::kTanh}) {
    const kernels::Epilogue ep{bias.data(), act};
    for (const char* op : {"nn", "tn", "nt"}) {
      const std::string o = op;
      auto c_ref = c0;
      auto c_ker = c0;
      if (o == "nn") {
        kernels::reference::gemm_nn(m, n, k, a.data(), k, b.data(), n,
                                    c_ref.data(), n);
        kernels::gemm_nn(m, n, k, a.data(), k, b.data(), n, c_ker.data(), n,
                         ep);
      } else if (o == "tn") {
        kernels::reference::gemm_tn(m, n, k, a.data(), m, b.data(), n,
                                    c_ref.data(), n);
        kernels::gemm_tn(m, n, k, a.data(), m, b.data(), n, c_ker.data(), n,
                         ep);
      } else {
        kernels::reference::gemm_nt(m, n, k, a.data(), k, b.data(), k,
                                    c_ref.data(), n);
        kernels::gemm_nt(m, n, k, a.data(), k, b.data(), k, c_ker.data(), n,
                         ep);
      }
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j) c_ref[r * n + j] += bias[j];
      }
      kernels::activate(act, c_ref.data(), c_ref.size());
      EXPECT_EQ(max_abs_diff(c_ref, c_ker), 0.0)
          << op << ", activation " << static_cast<int>(act);
    }
  }
}

TEST(Kernels, RowPartitionInvariance) {
  // The thread-pool split partitions output rows; computing the two halves
  // as separate GEMM calls must be bit-identical to one full call.
  const std::size_t m = 45, n = 37, k = 141;
  const auto a = random_buffer(m * k, 101);
  const auto b = random_buffer(k * n, 103);
  std::vector<double> c_full(m * n, 0.0);
  std::vector<double> c_split(m * n, 0.0);
  kernels::gemm_nn(m, n, k, a.data(), k, b.data(), n, c_full.data(), n);
  const std::size_t half = m / 2;
  kernels::gemm_nn(half, n, k, a.data(), k, b.data(), n, c_split.data(), n);
  kernels::gemm_nn(m - half, n, k, a.data() + half * k, k, b.data(), n,
                   c_split.data() + half * n, n);
  EXPECT_EQ(max_abs_diff(c_full, c_split), 0.0);
}

TEST(Kernels, VectorPrimitives) {
  const std::size_t n = 103;
  const auto x = random_buffer(n, 107);
  auto y = random_buffer(n, 109);
  auto y_ref = y;
  kernels::axpy(n, 0.75, x.data(), y.data());
  for (std::size_t i = 0; i < n; ++i) y_ref[i] += 0.75 * x[i];
  EXPECT_EQ(max_abs_diff(y, y_ref), 0.0);

  kernels::scale(n, -1.25, y.data());
  for (double& v : y_ref) v *= -1.25;
  EXPECT_EQ(max_abs_diff(y, y_ref), 0.0);

  double d_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) d_ref += x[i] * y[i];
  EXPECT_DOUBLE_EQ(kernels::dot(n, x.data(), y.data()), d_ref);

  const std::size_t m = 11, cols = 13;
  const auto a = random_buffer(m * cols, 113);
  std::vector<double> sums(cols, 0.5);
  auto sums_ref = sums;
  kernels::col_sums_add(m, cols, a.data(), cols, sums.data());
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < cols; ++j) sums_ref[j] += a[r * cols + j];
  }
  EXPECT_EQ(max_abs_diff(sums, sums_ref), 0.0);
}

TEST(Kernels, ConcurrentGemmsAreIndependent) {
  // Each worker owns its buffers; the kernels share only thread_local pack
  // scratch and the metrics counters. Run under `ctest -L tsan` to prove
  // the sharing is race-free.
  constexpr int kWorkers = 4;
  const std::size_t m = 48, n = 48, k = 48;
  std::vector<std::vector<double>> results(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      const auto a = random_buffer(m * k, 127 + w);
      const auto b = random_buffer(k * n, 131 + w);
      std::vector<double> c(m * n, 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(c.begin(), c.end(), 0.0);
        kernels::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n);
      }
      results[w] = std::move(c);
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    const auto a = random_buffer(m * k, 127 + w);
    const auto b = random_buffer(k * n, 131 + w);
    std::vector<double> expected(m * n, 0.0);
    kernels::reference::gemm_nn(m, n, k, a.data(), k, b.data(), n,
                                expected.data(), n);
    EXPECT_EQ(max_abs_diff(results[w], expected), 0.0) << "worker " << w;
  }
}

TEST(Kernels, GemmCountersAdvance) {
  auto& calls = obs::counter("kernel.gemm.calls");
  auto& flops = obs::counter("kernel.gemm.flops");
  const auto calls_before = calls.value();
  const auto flops_before = flops.value();
  Matrix a(8, 16);
  Matrix b(16, 4);
  a.fill(0.5);
  b.fill(0.25);
  Matrix c = kernels::matmul(a, b);
  EXPECT_EQ(calls.value(), calls_before + 1);
  EXPECT_EQ(flops.value(), flops_before + 2ull * 8 * 16 * 4);
  EXPECT_NEAR(c(0, 0), 16 * 0.5 * 0.25, 1e-12);
}

TEST(Kernels, DenseFusedActivationMatchesSeparateLayer) {
  // A Dense with fused ReLU must be indistinguishable — forward and
  // gradients — from Dense followed by a standalone ReLU layer.
  const Matrix X = [&] {
    Rng rng(139);
    Matrix m(20, 10);
    for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
    return m;
  }();
  nn::Dense fused(10, 7, 991, kernels::Activation::kRelu);
  nn::Dense plain(10, 7, 991);
  nn::ReLU relu;

  const Matrix out_fused = fused.forward(X, true);
  const Matrix out_plain = relu.forward(plain.forward(X, true), true);
  ASSERT_EQ(out_fused.rows(), out_plain.rows());
  EXPECT_EQ(max_abs_diff(out_fused.data(), out_plain.data()), 0.0);

  Matrix g(20, 7);
  Rng rng(149);
  for (double& v : g.data()) v = rng.uniform(-1.0, 1.0);
  const Matrix dx_fused = fused.backward(g);
  const Matrix dx_plain = plain.backward(relu.backward(g));
  EXPECT_EQ(max_abs_diff(dx_fused.data(), dx_plain.data()), 0.0);
  EXPECT_EQ(max_abs_diff(fused.parameters()[0]->grad.data(),
                         plain.parameters()[0]->grad.data()),
            0.0);
  EXPECT_EQ(max_abs_diff(fused.parameters()[1]->grad.data(),
                         plain.parameters()[1]->grad.data()),
            0.0);
}

std::unique_ptr<nn::Layer> standalone_activation(kernels::Activation act) {
  switch (act) {
    case kernels::Activation::kRelu:
      return std::make_unique<nn::ReLU>();
    case kernels::Activation::kTanh:
      return std::make_unique<nn::Tanh>();
    default:
      return std::make_unique<nn::Sigmoid>();
  }
}

TEST(Kernels, Conv1DFusedActivationMatchesSeparateLayer) {
  // A Conv1D with a fused activation must be indistinguishable — forward,
  // dX, dW and db — from Conv1D followed by the standalone layer, on every
  // target. 19 output channels give every target full tiles and a ragged
  // edge.
  namespace kd = kernels::detail;
  const Matrix X = [&] {
    Rng rng(151);
    Matrix m(6, 10 * 3);
    for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
    return m;
  }();
  const kd::Target active = kd::active_target();
  for (const kd::Target t : kd::kTargets) {
    if (!kd::supported(t)) continue;
    kd::use_target(t);
    for (const auto act :
         {kernels::Activation::kRelu, kernels::Activation::kTanh,
          kernels::Activation::kSigmoid}) {
      SCOPED_TRACE(std::string(kd::target_name(t)) + ", activation " +
                   std::to_string(static_cast<int>(act)));
      nn::Conv1D fused(3, 19, 3, /*dilation=*/2, true, 157, act);
      nn::Conv1D plain(3, 19, 3, /*dilation=*/2, true, 157);
      const auto layer = standalone_activation(act);

      const Matrix out_fused = fused.forward(X, true);
      const Matrix out_plain = layer->forward(plain.forward(X, true), true);
      ASSERT_EQ(out_fused.cols(), out_plain.cols());
      EXPECT_EQ(max_abs_diff(out_fused.data(), out_plain.data()), 0.0);

      Matrix g(out_fused.rows(), out_fused.cols());
      Rng rng(163);
      for (double& v : g.data()) v = rng.uniform(-1.0, 1.0);
      const Matrix dx_fused = fused.backward(g);
      const Matrix dx_plain = plain.backward(layer->backward(g));
      EXPECT_EQ(max_abs_diff(dx_fused.data(), dx_plain.data()), 0.0);
      for (std::size_t p = 0; p < 2; ++p) {  // dW, db
        EXPECT_EQ(max_abs_diff(fused.parameters()[p]->grad.data(),
                               plain.parameters()[p]->grad.data()),
                  0.0)
            << "parameter " << p;
      }
    }
  }
  kd::use_target(active);
}

// ---------------------------------------------------------------------------
// Golden loss curves: captured from the pre-kernel scalar implementation at
// fixed seeds (epochs=5, batch=16, shuffle_seed=7, Adam 1e-3, MSE). Each
// case trains its net on the target under test and again on SSE2, the copy
// without FMA: the two curves must be bit-identical, because every target
// computes the same sums. The golden values themselves are matched to 1e-9
// relative, since they also depend on libm. A drift here means the kernels
// changed training numerics, not just speed.
// ---------------------------------------------------------------------------

Matrix golden_inputs(std::size_t rows, std::size_t cols,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix X(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) X(r, c) = rng.uniform(-1.0, 1.0);
  }
  return X;
}

Matrix golden_targets(const Matrix& X) {
  Matrix y(X.rows(), 1);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < X.cols(); ++c) {
      s += (c % 2 == 0 ? 1.0 : -0.5) * X(r, c);
    }
    y(r, 0) = s + 0.1 * X(r, 0) * X(r, 1);
  }
  return y;
}

namespace kd = kernels::detail;

// Trains a fresh net built by `build` on the active target and on SSE2,
// then checks both curves as described above.
template <typename Build>
void expect_curve(Build build, const Matrix& X,
                  const std::vector<double>& want) {
  const Matrix y = golden_targets(X);
  auto train = [&] {
    nn::Sequential net;
    build(net);
    nn::MseLoss loss;
    nn::Adam opt(1e-3);
    nn::TrainConfig cfg;
    cfg.epochs = 5;
    cfg.batch_size = 16;
    cfg.shuffle_seed = 7;
    return nn::train(net, X, y, loss, opt, cfg);
  };
  const std::vector<double> got = train();
  const kd::Target active = kd::use_target(kd::Target::kSse2);
  const std::vector<double> sse2 = train();
  kd::use_target(active);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(sse2.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], sse2[i]) << "epoch " << i << " differs from sse2";
    EXPECT_NEAR(got[i], want[i], 1e-9 * std::abs(want[i]))
        << "epoch " << i;
  }
}

class GoldenCurves : public OnEachTarget {};
CODA_ON_EACH_TARGET(GoldenCurves);

const std::vector<double> kMlpCurve = {
    2.1588932135995602, 2.1164740181241992, 2.0780803628048683,
    2.0416285617351924, 1.9954383476071815};

TEST_P(GoldenCurves, MlpTrainingTrajectoryUnchanged) {
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Dense>(12, 16, 101);
        net.emplace<nn::ReLU>();
        net.emplace<nn::Dense>(16, 8, 102);
        net.emplace<nn::ReLU>();
        net.emplace<nn::Dense>(8, 1, 103);
      },
      golden_inputs(48, 12, 11), kMlpCurve);
}

TEST_P(GoldenCurves, MlpFusedActivationSameTrajectory) {
  // Same net built with fused Dense+ReLU: the curve must not move.
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Dense>(12, 16, 101, kernels::Activation::kRelu);
        net.emplace<nn::Dense>(16, 8, 102, kernels::Activation::kRelu);
        net.emplace<nn::Dense>(8, 1, 103);
      },
      golden_inputs(48, 12, 11), kMlpCurve);
}

TEST_P(GoldenCurves, LstmTrainingTrajectoryUnchanged) {
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Lstm>(2, 6, false, 201);
        net.emplace<nn::Dense>(6, 1, 202);
      },
      golden_inputs(40, 16, 21),
      {3.1077053433626851, 3.0607513860691675, 3.0343934417377016,
       3.1205801196977521, 3.039978021742773});
}

const std::vector<double> kCnnCurve = {
    6.0761647602117455, 6.4745732692710449, 6.4938155530214194,
    6.6255002295169403, 6.143166803338417};

TEST_P(GoldenCurves, CnnTrainingTrajectoryUnchanged) {
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Conv1D>(2, 4, 3, 1, true, 301);
        net.emplace<nn::ReLU>();
        net.emplace<nn::MaxPool1D>(4, 2);
        net.emplace<nn::Dense>(6 * 4, 8, 302);
        net.emplace<nn::ReLU>();
        net.emplace<nn::Dense>(8, 1, 303);
      },
      golden_inputs(40, 24, 31), kCnnCurve);
}

TEST_P(GoldenCurves, CnnFusedActivationSameTrajectory) {
  // Same net with ReLU fused into Conv1D and Dense: the curve must not move.
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Conv1D>(2, 4, 3, 1, true, 301,
                                kernels::Activation::kRelu);
        net.emplace<nn::MaxPool1D>(4, 2);
        net.emplace<nn::Dense>(6 * 4, 8, 302, kernels::Activation::kRelu);
        net.emplace<nn::Dense>(8, 1, 303);
      },
      golden_inputs(40, 24, 31), kCnnCurve);
}

TEST_P(GoldenCurves, DilatedConvTanhTrajectoryUnchanged) {
  // A SeriesNet-shaped stack: dilated causal convs with fused tanh and 16
  // output channels, so full vector tiles run on every target and a kernel
  // built with FMA contraction departs from the SSE2 curve.
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Conv1D>(2, 16, 2, 1, true, 311,
                                kernels::Activation::kTanh);
        net.emplace<nn::Conv1D>(16, 16, 2, 2, true, 312,
                                kernels::Activation::kTanh);
        net.emplace<nn::SliceLastTimestep>(16);
        net.emplace<nn::Dense>(16, 1, 313);
      },
      golden_inputs(40, 24, 41),
      {8.3239357400129084, 8.5252476538565585, 6.7544698629166717,
       7.5537054231857921, 6.7980875113941357});
}

}  // namespace
}  // namespace coda
