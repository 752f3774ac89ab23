// Shared vectorized compute kernels (DESIGN.md §11). Every matmul in the
// training/evaluation hot path — Dense/Lstm/Conv1D forward+backward,
// ml/linalg normal equations, PCA covariance, Matrix::multiply — routes
// through this layer instead of per-call-site scalar triple loops.
//
// Every GEMM runs one register tile (src/core/gemm_tile.cpp): 4 rows of C
// by two vector registers of columns, vectorized over n, with B read in
// place and A read through (row, k) strides so one tile serves NN and TN;
// NT transposes its small Bᵀ once per call. NN and TN run the tile over k
// panels of at most 48K doubles of B (one panel at every fit shape). The
// tile is compiled for SSE2, AVX2 and AVX-512 and the first GEMM picks the
// widest copy the CPU runs (detail:: below is the seam tests use to pick
// another). Large shapes are split row-wise into a TaskGroup on the
// calling task's pool (the process-wide executor outside any task), and
// the caller runs the chunks no idle worker has taken.
//
// Equivalence guarantee: for each output element the reduction over k
// runs in ascending order, exactly like the naive loops these kernels
// replaced — vector lanes are distinct output columns, the kernel sources
// build with -ffp-contract=off, NN/TN carry each element's sum through C
// between k panels, and row-wise threading partitions disjoint output
// rows — so results are independent of target, panel depth and thread
// count. tests/test_kernels.cpp pins this against the `reference`
// implementations below on every supported target.
//
// The elementwise math — exp, sigmoid, tanh, the activation derivatives
// and the dropout mask — is compiled into the same per-target copies
// (src/core/vmath.h) and dispatched with the GEMM: one range-reduction plus
// polynomial algorithm, no libm call, bit-identical on every target.
//
// Observability: `kernel.gemm.calls` / `kernel.gemm.flops` count every
// GEMM, and every call is one span-free `kernel.gemm` profiler region
// whose seconds also feed the `kernel.gemm.seconds` histogram. A GEMM
// whose epilogue activates runs the activation after it, over all of C, in
// a sibling `kernel.activate` region.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/data/matrix.h"

namespace coda::kernels {

/// Elementwise activation. Its math lives only in activate /
/// activate_grad below, whether it runs as a GEMM epilogue (Dense,
/// Conv1D), over the LSTM gates or as a standalone layer.
enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// Epilogue of a GEMM: C = act(C_in + A·B + bias), with `bias` an optional
/// length-n row vector broadcast over rows. The bias is added in the final
/// write-back of each result tile (the last k panel's); the activation then
/// runs over C in one pass (`kernel.activate`).
struct Epilogue {
  const double* bias = nullptr;
  Activation act = Activation::kNone;
};

/// x = f(x) in place over `rows` rows of `cols` elements, row r starting at
/// x + r * ld: relu max(x, 0), sigmoid 1 / (1 + e^-x), tanh. One
/// definition (src/core/vmath.h) serves every caller, GEMM epilogues
/// included; against libm, sigmoid is within 4 ulp of 1 / (1 + std::exp(-x))
/// and tanh within 2 ulp of std::tanh (DESIGN.md §11).
void activate(Activation act, double* x, std::size_t rows, std::size_t cols,
              std::size_t ld);

/// g *= f'(x) over the same row layout, written in terms of the
/// post-activation output y = f(x): relu [y > 0], sigmoid y(1 - y), tanh
/// 1 - y^2. y and g share the leading dimension `ld`.
void activate_grad(Activation act, const double* y, double* g,
                   std::size_t rows, std::size_t cols, std::size_t ld);

/// The contiguous forms: x[0, n) and g[0, n).
inline void activate(Activation act, double* x, std::size_t n) {
  activate(act, x, 1, n, n);
}
inline void activate_grad(Activation act, const double* y, double* g,
                          std::size_t n) {
  activate_grad(act, y, g, 1, n, n);
}

/// The inverted-dropout mask of one training forward: mask[i] =
/// 1 / (1 - rate) when element i is kept, else 0. The keep decision is a
/// pure function of (seed, call, i) — element i of call c keeps when the
/// top 53 bits of mix64(s + i·γ), s = mix64(seed + c·γ), are at least
/// ceil(rate · 2^53), with coda::mix64 and γ = kSplitMixGamma
/// (src/util/random.h): the i-th draw of a SplitMix64 stream seeded by the
/// c-th draw of one seeded by `seed` — so a mask never depends on earlier
/// calls.
void dropout_mask(std::uint64_t seed, std::uint64_t call, double rate,
                  double* mask, std::size_t n);

// ---------------------------------------------------------------------------
// GEMM in the three orientations the layers need. All matrices are row-major
// with explicit leading dimensions, so strided submatrix views (e.g. one
// timestep slice of a flattened sequence batch) need no copies.
// ---------------------------------------------------------------------------

/// C (m x n, ldc) += A (m x k, lda) · B (k x n, ldb), then epilogue.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep = {});

/// C (m x n, ldc) += Aᵀ · B where A is stored k x m (lda): the backward
/// weight-gradient shape dW += Xᵀ·G without materializing Xᵀ.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep = {});

/// C (m x n, ldc) += A · Bᵀ where B is stored n x k (ldb): the backward
/// input-gradient shape dX += G·Wᵀ without materializing Wᵀ.
/// With `accumulate = false` the result overwrites C instead of adding to
/// it — bit-identical to zero-filling C first (0 + s == s), minus the fill
/// pass.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep = {}, bool accumulate = true);

// Matrix-level conveniences (accumulate into `c`, which must be presized).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 const Epilogue& ep = {});
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    const Epilogue& ep = {});
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c,
                    const Epilogue& ep = {});

/// out = a · b (freshly allocated).
Matrix matmul(const Matrix& a, const Matrix& b, const Epilogue& ep = {});

// ---------------------------------------------------------------------------
// Vector primitives.
// ---------------------------------------------------------------------------

/// y[i] += alpha * x[i].
void axpy(std::size_t n, double alpha, const double* x, double* y);

/// x[i] *= alpha.
void scale(std::size_t n, double alpha, double* x);

/// Ascending-order dot product.
double dot(std::size_t n, const double* x, const double* y);

/// out[j] += sum_i a(i, j) for a row-major m x n matrix (bias gradients).
void col_sums_add(std::size_t m, std::size_t n, const double* a,
                  std::size_t lda, double* out);

// ---------------------------------------------------------------------------
// Dispatch targets of the per-target kernels. Every GEMM and elementwise
// call runs the widest target the host supports, chosen once at the first
// call; tests and bench_kernels reach the others through this seam.
// ---------------------------------------------------------------------------
namespace detail {

enum class Target : unsigned char { kSse2, kAvx2, kAvx512 };

/// Every target, narrowest first.
inline constexpr Target kTargets[] = {Target::kSse2, Target::kAvx2,
                                      Target::kAvx512};

/// "sse2" (the portable copy off x86), "avx2" or "avx512".
const char* target_name(Target t);

/// True when this build has the target's copy and the host can run it.
bool supported(Target t);

/// The target GEMMs dispatch to now.
Target active_target();

/// Routes every later kernel call, on every thread, to `t` (which must be
/// supported) and returns the target it replaces.
Target use_target(Target t);

/// x[i] = e^x[i] in place, the exp that sigmoid and tanh are built on
/// (within 1 ulp of the correctly rounded value over the whole finite
/// range). Exposed for the accuracy tests and bench_kernels.
void exp(double* x, std::size_t n);

}  // namespace detail

// ---------------------------------------------------------------------------
// Naive reference implementations: the exact pre-kernel scalar loops, kept
// as the ground truth for the equivalence tests and the bench baseline.
// Inline so they compile at the *caller's* optimization level (the bench
// baseline measures them as the pre-PR code was compiled).
// ---------------------------------------------------------------------------
namespace reference {

inline void gemm_nn(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t l = 0; l < k; ++l) {
      const double v = a[r * lda + l];
      if (v == 0.0) continue;  // the old Matrix::multiply zero-skip
      for (std::size_t j = 0; j < n; ++j) {
        c[r * ldc + j] += v * b[l * ldb + j];
      }
    }
  }
}

inline void gemm_tn(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t i = 0; i < m; ++i) {
      const double v = a[l * lda + i];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * ldc + j] += v * b[l * ldb + j];
      }
    }
  }
}

inline void gemm_nt(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        s += a[i * lda + l] * b[j * ldb + l];
      }
      c[i * ldc + j] += s;
    }
  }
}

}  // namespace reference

}  // namespace coda::kernels
