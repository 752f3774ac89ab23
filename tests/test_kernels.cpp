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
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/kernels.h"
#include "src/data/matrix.h"
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
#include "src/obs/metrics.h"
#include "src/util/error.h"
#include "src/util/random.h"
#include "tests/kernel_targets.h"

namespace coda {
namespace {

struct Shape {
  std::size_t m, n, k;
};

// Shapes chosen to exercise every edge of the tile: single rows/cols,
// sub-tile sizes and non-multiples of every target's register tile
// (including the narrow n the tile finishes with halving vector widths),
// shapes whose B exceeds one 48K-double k panel and so cross one or more
// panel boundaries with a ragged last panel, and the shapes the forecaster
// fits and ml/linalg issue.
const std::vector<Shape> kShapes = {
    {1, 1, 1},     {1, 7, 3},     {5, 1, 9},     {8, 12, 4},
    {7, 13, 17},   {13, 29, 31},  {64, 64, 64},  {61, 67, 129},
    {3, 5, 500},   {9, 260, 40},  {130, 250, 70},
    // Several k panels.
    {9, 300, 200}, {5, 2000, 30}, {3, 7, 8000},  {40, 193, 700},
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

// The body of FusedEpilogueMatchesSeparatePasses for one shape.
void expect_fused_epilogue_matches(const Shape& s) {
  const auto [m, n, k] = s;
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
          << op << ", activation " << static_cast<int>(act) << ", shape "
          << m << "x" << n << "x" << k;
    }
  }
}

TEST_P(KernelsOnTarget, FusedEpilogueMatchesSeparatePasses) {
  // C = act(C + A·B + bias) from one GEMM call with an epilogue must equal
  // the reference GEMM followed by a separate bias + activation pass, in
  // every orientation; n = 19 leaves a ragged edge on every target's tile.
  // 17x300x400 runs NN/TN over three k panels: the bias is added once, on
  // the last.
  for (const Shape s : {Shape{17, 19, 23}, Shape{17, 300, 400}}) {
    expect_fused_epilogue_matches(s);
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
  // Each worker owns its buffers; the kernels share only NT's thread_local
  // transpose scratch and the metrics counters. Run under `ctest -L tsan` to
  // prove the sharing is race-free.
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
// Elementwise math (src/core/vmath.h): every target computes the same bits
// as the portable copy, within a stated ulp bound of libm.
// ---------------------------------------------------------------------------

namespace kd = kernels::detail;

// Distance in units in the last place: the number of doubles between a
// and b (0 when equal, or when both are NaN).
std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0 : ~std::uint64_t{0};
  }
  auto ordered = [](double x) {
    std::int64_t i = 0;
    std::memcpy(&i, &x, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ia = ordered(a);
  const std::int64_t ib = ordered(b);
  return ia > ib ? static_cast<std::uint64_t>(ia) - static_cast<std::uint64_t>(ib)
                 : static_cast<std::uint64_t>(ib) - static_cast<std::uint64_t>(ia);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Inputs over the range the activations see, plus the special values.
std::vector<double> elementwise_inputs(std::size_t n, std::uint64_t seed) {
  auto v = random_buffer(n, seed);
  for (double& x : v) x *= 30.0;
  const double special[] = {0.0, -0.0, 0.625, -0.625, 20.0, -40.0, 710.0,
                            -746.0, std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min()};
  for (std::size_t i = 0; i < std::size(special) && 3 * i < n; ++i) {
    v[3 * i] = special[i];
  }
  return v;
}

constexpr kernels::Activation kActivations[] = {
    kernels::Activation::kRelu, kernels::Activation::kSigmoid,
    kernels::Activation::kTanh};

class ElementwiseOnTarget : public OnEachTarget {};
CODA_ON_EACH_TARGET(ElementwiseOnTarget);

// Runs op(buffer, off, n) — an operation on buffer[off, off + n) — over a
// copy of `x` on the target under test and on SSE2; the results, and the
// untouched elements around the span, must match bit for bit.
template <typename Op>
void expect_same_as_sse2(const std::vector<double>& x, Op op,
                         const char* what) {
  constexpr std::size_t kMaxW = 8;  // doubles per AVX-512 vector
  for (std::size_t n = 0; n <= 3 * kMaxW + 1; ++n) {
    for (std::size_t off = 0; off < 4; ++off) {
      auto got = x;
      op(got.data(), off, n);
      const kd::Target active = kd::use_target(kd::Target::kSse2);
      auto want = x;
      op(want.data(), off, n);
      kd::use_target(active);
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(same_bits(got[i], want[i]))
            << what << ": n " << n << ", offset " << off << ", element " << i
            << ": " << got[i] << " vs sse2 " << want[i];
      }
    }
  }
}

TEST_P(ElementwiseOnTarget, ActivateBitIdenticalToPortableCopy) {
  const auto x = elementwise_inputs(32, 211);
  for (const auto act : kActivations) {
    expect_same_as_sse2(
        x,
        [act](double* p, std::size_t off, std::size_t n) {
          kernels::activate(act, p + off, n);
        },
        "activate");
  }
  expect_same_as_sse2(
      x,
      [](double* p, std::size_t off, std::size_t n) { kd::exp(p + off, n); },
      "exp");
  // Many distinct inputs in one call: a contracted (FMA) polynomial
  // differs from the two-rounding one only in rare last bits.
  auto bulk = random_buffer(20000, 241);
  for (double& v : bulk) v *= 40.0;
  auto run = [&bulk](kd::Target t, auto op) {
    const kd::Target active = kd::use_target(t);
    auto out = bulk;
    op(out.data(), out.size());
    kd::use_target(active);
    return out;
  };
  for (const auto act : kActivations) {
    auto op = [act](double* p, std::size_t n) { kernels::activate(act, p, n); };
    const auto got = run(GetParam(), op);
    const auto want = run(kd::Target::kSse2, op);
    for (std::size_t i = 0; i < bulk.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i], want[i]))
          << "activation " << static_cast<int>(act) << " at x = " << bulk[i];
    }
  }
  for (double& v : bulk) v *= 17.0;  // [-680, 680]: exp's finite range
  const auto got = run(GetParam(), kd::exp);
  const auto want = run(kd::Target::kSse2, kd::exp);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i])) << "exp at x = " << bulk[i];
  }
}

TEST_P(ElementwiseOnTarget, StridedRowsMatchOneCallPerRow) {
  // The row form (3 rows of n, leading dimension 29) on this target equals
  // one contiguous call per row, and SSE2's row form, bit for bit.
  const auto x = elementwise_inputs(96, 233);
  const auto y = elementwise_inputs(96, 239);
  for (const auto act : kActivations) {
    auto fy = y;
    kernels::activate(act, fy.data(), fy.size());
    expect_same_as_sse2(
        x,
        [act](double* p, std::size_t off, std::size_t n) {
          kernels::activate(act, p + off, 3, n, 29);
        },
        "activate rows");
    expect_same_as_sse2(
        x,
        [&](double* p, std::size_t off, std::size_t n) {
          kernels::activate_grad(act, fy.data() + off, p + off, 3, n, 29);
        },
        "activate_grad rows");
    for (std::size_t n = 0; n <= 25; ++n) {
      auto rows = x;
      auto each = x;
      auto g_rows = x;
      auto g_each = x;
      kernels::activate(act, rows.data() + 1, 3, n, 29);
      kernels::activate_grad(act, fy.data() + 1, g_rows.data() + 1, 3, n, 29);
      for (std::size_t r = 0; r < 3; ++r) {
        kernels::activate(act, each.data() + 1 + r * 29, n);
        kernels::activate_grad(act, fy.data() + 1 + r * 29,
                               g_each.data() + 1 + r * 29, n);
      }
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(same_bits(rows[i], each[i])) << "n " << n << ", " << i;
        ASSERT_TRUE(same_bits(g_rows[i], g_each[i])) << "n " << n << ", " << i;
      }
    }
  }
}

TEST_P(ElementwiseOnTarget, ActivateGradBitIdenticalToPortableCopy) {
  // Outputs as the activations produce them, gradients anywhere.
  const auto y = elementwise_inputs(32, 223);
  const auto g = random_buffer(32, 227);
  for (const auto act : kActivations) {
    auto fy = y;
    kernels::activate(act, fy.data(), fy.size());
    expect_same_as_sse2(
        g,
        [&](double* p, std::size_t off, std::size_t n) {
          kernels::activate_grad(act, fy.data() + off, p + off, n);
        },
        "activate_grad");
  }
}

TEST_P(ElementwiseOnTarget, DropoutMaskBitIdenticalToPortableCopy) {
  const std::vector<double> zeros(32, 0.0);
  for (const double rate : {0.1, 0.5, 0.9}) {
    expect_same_as_sse2(
        zeros,
        [rate](double* p, std::size_t off, std::size_t n) {
          kernels::dropout_mask(17, 5, rate, p + off, n);
        },
        "dropout_mask");
  }
}

// The largest ulp distance between f over `xs` and the reference `ref`.
template <typename Ref>
std::uint64_t worst_ulps(const std::vector<double>& xs,
                         void (*f)(double*, std::size_t), Ref ref,
                         double* worst_x) {
  auto ys = xs;
  f(ys.data(), ys.size());
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t d = ulp_distance(ys[i], ref(xs[i]));
    if (d > worst) {
      worst = d;
      *worst_x = xs[i];
    }
  }
  return worst;
}

// A dense grid over [lo, hi] plus seeded uniform points in it.
std::vector<double> grid(double lo, double hi) {
  constexpr std::size_t kGrid = 200001;
  std::vector<double> xs;
  for (std::size_t i = 0; i < kGrid; ++i) {
    xs.push_back(lo + (hi - lo) * static_cast<double>(i) / (kGrid - 1));
  }
  Rng rng(229);
  for (std::size_t i = 0; i < kGrid; ++i) xs.push_back(rng.uniform(lo, hi));
  // Small magnitudes, where tanh takes its rational branch.
  for (std::size_t i = 0; i < 2000; ++i) {
    xs.push_back(std::ldexp(rng.uniform(-1.0, 1.0), -static_cast<int>(i % 60)));
  }
  return xs;
}

// The stated bounds (DESIGN.md §11), measured against glibc's libm: exp
// within 1 ulp of std::exp over its whole finite range, tanh within 2 ulp
// of std::tanh and sigmoid within 4 ulp of 1 / (1 + std::exp(-x)) on
// [-40, 40]. (Against a long-double reference the same code measures 1, 1
// and 2 ulp: the sigmoid reference's own 1 + e rounding doubles exp's
// difference where e exceeds 2^53.)
TEST_P(ElementwiseOnTarget, ExpWithinOneUlpOfLibmOverTheFiniteRange) {
  double at = 0.0;
  const auto d = worst_ulps(
      grid(-745.13, 709.78), kd::exp, [](double x) { return std::exp(x); },
      &at);
  EXPECT_LE(d, 1u) << "at x = " << at;
}

TEST_P(ElementwiseOnTarget, SigmoidWithinFourUlpOfLibm) {
  double at = 0.0;
  const auto d = worst_ulps(
      grid(-40.0, 40.0),
      [](double* x, std::size_t n) {
        kernels::activate(kernels::Activation::kSigmoid, x, n);
      },
      [](double x) { return 1.0 / (1.0 + std::exp(-x)); }, &at);
  EXPECT_LE(d, 4u) << "at x = " << at;
}

TEST_P(ElementwiseOnTarget, TanhWithinTwoUlpOfLibm) {
  double at = 0.0;
  const auto d = worst_ulps(
      grid(-40.0, 40.0),
      [](double* x, std::size_t n) {
        kernels::activate(kernels::Activation::kTanh, x, n);
      },
      [](double x) { return std::tanh(x); }, &at);
  EXPECT_LE(d, 2u) << "at x = " << at;
}

TEST_P(ElementwiseOnTarget, SpecialValues) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  auto exp1 = [](double x) {
    kd::exp(&x, 1);
    return x;
  };
  auto act1 = [](kernels::Activation a, double x) {
    kernels::activate(a, &x, 1);
    return x;
  };
  auto sigmoid = [&](double x) {
    return act1(kernels::Activation::kSigmoid, x);
  };
  auto tanh = [&](double x) { return act1(kernels::Activation::kTanh, x); };

  EXPECT_EQ(exp1(0.0), 1.0);
  EXPECT_EQ(exp1(-0.0), 1.0);
  EXPECT_EQ(exp1(inf), inf);
  EXPECT_EQ(exp1(-inf), 0.0);
  EXPECT_TRUE(std::isnan(exp1(nan)));
  EXPECT_EQ(exp1(709.78), std::exp(709.78));  // the largest finite results
  EXPECT_EQ(exp1(709.79), inf);
  EXPECT_EQ(exp1(-745.13), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(exp1(-745.2), 0.0);
  // Subnormal outputs round once, like libm's.
  for (double x = -745.0; x < -708.4; x += 0.37) {
    const double got = exp1(x);
    EXPECT_LT(got, std::numeric_limits<double>::min()) << x;
    EXPECT_LE(ulp_distance(got, std::exp(x)), 1u) << x;
  }

  EXPECT_EQ(sigmoid(0.0), 0.5);
  EXPECT_EQ(sigmoid(-0.0), 0.5);
  EXPECT_EQ(sigmoid(inf), 1.0);
  EXPECT_EQ(sigmoid(-inf), 0.0);
  EXPECT_EQ(sigmoid(40.0), 1.0);
  EXPECT_EQ(sigmoid(-746.0), 0.0);
  EXPECT_TRUE(std::isnan(sigmoid(nan)));
  const double tiny = sigmoid(-709.5);  // a subnormal output
  EXPECT_LT(tiny, std::numeric_limits<double>::min());
  EXPECT_LE(ulp_distance(tiny, 1.0 / (1.0 + std::exp(709.5))), 4u);

  EXPECT_TRUE(same_bits(tanh(0.0), 0.0));
  EXPECT_TRUE(same_bits(tanh(-0.0), -0.0));
  EXPECT_EQ(tanh(inf), 1.0);
  EXPECT_EQ(tanh(-inf), -1.0);
  EXPECT_TRUE(std::isnan(tanh(nan)));
  // Saturation: tanh rounds to ±1 from |x| ≈ 19.06, and the clamp at 20
  // keeps it there.
  EXPECT_EQ(tanh(19.1), 1.0);
  EXPECT_EQ(tanh(-20.0), -1.0);
  EXPECT_EQ(tanh(1e300), 1.0);
  EXPECT_LT(tanh(18.0), 1.0);
  // Both sides of the branch point, and a subnormal input.
  EXPECT_LE(ulp_distance(tanh(0.625), std::tanh(0.625)), 2u);
  EXPECT_LE(ulp_distance(tanh(std::nextafter(0.625, 1.0)),
                         std::tanh(std::nextafter(0.625, 1.0))),
            2u);
  const double sub = std::numeric_limits<double>::denorm_min() * 12345;
  EXPECT_EQ(tanh(sub), sub);
  EXPECT_EQ(tanh(-sub), -sub);
}

TEST_P(ElementwiseOnTarget, DropoutMaskFollowsTheStatedRule) {
  // Element i of call c keeps when the top 53 bits of mix64(s + i·γ),
  // s = mix64(seed + c·γ), reach ceil(rate · 2^53) (kernels.h), written
  // out here with the scalar coda::mix64.
  const std::uint64_t seed = 42, call = 3;
  const double rate = 0.3;
  std::vector<double> mask(37, -1.0);
  kernels::dropout_mask(seed, call, rate, mask.data(), mask.size());
  const std::uint64_t s = mix64(seed + call * kSplitMixGamma);
  const auto threshold = static_cast<std::uint64_t>(std::ceil(rate * 0x1p53));
  for (std::size_t i = 0; i < mask.size(); ++i) {
    const bool keep = (mix64(s + i * kSplitMixGamma) >> 11) >= threshold;
    EXPECT_TRUE(same_bits(mask[i], keep ? 1.0 / (1.0 - rate) : 0.0))
        << "element " << i;
  }
}

// ---------------------------------------------------------------------------
// Golden loss curves at fixed seeds (epochs=5, batch=16, shuffle_seed=7,
// Adam 1e-3, MSE), captured from the kernels' own elementwise math. Each
// case trains its net on the target under test and again on SSE2, the copy
// without FMA: both runs must end with the same weights bit for bit, and
// both curves must equal the golden values bit for bit, because every
// target computes the same sums and no step calls libm. A drift here means
// the kernels changed training numerics, not just speed.
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

// Trains a fresh net built by `build` on the active target and on SSE2,
// then checks both curves as described above.
template <typename Build>
void expect_curve(Build build, const Matrix& X,
                  const std::vector<double>& want) {
  const Matrix y = golden_targets(X);
  // The loss curve, then every trained parameter: the per-epoch mean loss
  // can round a last-bit difference away, the weights cannot.
  auto train = [&] {
    nn::Sequential net;
    build(net);
    nn::MseLoss loss;
    nn::Adam opt(1e-3);
    nn::TrainConfig cfg;
    cfg.epochs = 5;
    cfg.batch_size = 16;
    cfg.shuffle_seed = 7;
    std::vector<double> out = nn::train(net, X, y, loss, opt, cfg);
    for (const nn::ParamTensor* p : net.parameters()) {
      out.insert(out.end(), p->value.data().begin(), p->value.data().end());
    }
    return out;
  };
  const std::vector<double> got = train();
  const kd::Target active = kd::use_target(kd::Target::kSse2);
  const std::vector<double> sse2 = train();
  kd::use_target(active);
  ASSERT_EQ(got.size(), sse2.size());
  ASSERT_GE(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], sse2[i])
        << (i < want.size() ? "epoch " : "parameter element ")
        << (i < want.size() ? i : i - want.size()) << " differs from sse2";
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "epoch " << i;
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
      {3.1077053433626847, 3.0607513860691675, 3.0343934417377016,
       3.1205801196977521, 3.039978021742773});
}

TEST_P(GoldenCurves, LstmDropoutTrajectoryUnchanged) {
  // Dropout between the recurrent layer and the head: pins the mask rule
  // (kernels::dropout_mask) along with the LSTM gates.
  expect_curve(
      [](nn::Sequential& net) {
        net.emplace<nn::Lstm>(2, 8, false, 211);
        net.emplace<nn::Dropout>(0.25, 212);
        net.emplace<nn::Dense>(8, 1, 213);
      },
      golden_inputs(40, 16, 23),
      {3.5089765596580702, 3.3496631585312926, 3.1075099375783855,
       3.441968327713985, 3.2281562857898152});
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
       7.5537054231857939, 6.7980875113941366});
}

}  // namespace
}  // namespace coda
