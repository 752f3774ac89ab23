// Shared vectorized compute kernels (DESIGN.md §11). Every matmul in the
// training/evaluation hot path — Dense/Lstm/Conv1D forward+backward,
// ml/linalg normal equations, PCA covariance, Matrix::multiply — routes
// through this layer instead of per-call-site scalar triple loops.
//
// The GEMMs are cache-blocked and register-tiled (8x12 accumulator tiles,
// 384-deep k panels, A/B panels packed contiguous per block) and written as
// restrict-pointer loops with constant trip counts so the compiler
// auto-vectorizes them; src/CMakeLists.txt compiles kernels.cpp at -O3
// (and -march=native under -DCODA_NATIVE_ARCH).
// Large shapes are split row-wise across a lazily created util::ThreadPool.
//
// Equivalence guarantee: for each output element the reduction over k runs
// in ascending order, exactly like the naive loops these kernels replaced —
// k-panel blocking carries the accumulator tile through C between panels
// and row-wise threading partitions disjoint output rows, so results are
// independent of blocking factors and thread count. The numerical-
// equivalence suite (tests/test_kernels.cpp) pins this against the
// `reference` implementations below across ragged/non-tile-multiple shapes.
//
// Observability: `kernel.gemm.calls` / `kernel.gemm.flops` count every GEMM;
// `kernel.gemm.seconds` records wall time for large calls (small ones skip
// the clock so per-step overhead stays negligible) and
// `kernel.gemm.timed_flops` counts those same calls' flops, the numerator
// of a GF/s rate over `kernel.gemm.seconds`.
#pragma once

#include <cstddef>
#include <vector>

#include "src/data/matrix.h"

namespace coda::kernels {

/// Elementwise activation fused into a GEMM write-back.
enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// Epilogue applied during the final write-back of a GEMM result tile:
/// C = act(C_in + A·B + bias), with `bias` an optional length-n row vector
/// broadcast over rows. Fusing it here avoids a second full pass over C.
struct Epilogue {
  const double* bias = nullptr;
  Activation act = Activation::kNone;

  bool active() const { return bias != nullptr || act != Activation::kNone; }
};

/// Scalar application of an activation (shared with the fused epilogue).
double activate(double v, Activation act);

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

// ---------------------------------------------------------------------------
// Prepacked B operands. pack_b_matrix() lays B out in the exact panel/strip
// order gemm_nn's blocked driver consumes, so a weight matrix that several
// GEMM calls share (e.g. the LSTM recurrent Wh applied at every timestep, or
// a fused plan feeding one weight to many tiles) is packed once instead of
// per call. Packing is pure data movement: gemm_nn_packed reproduces
// gemm_nn's ascending-k reduction order bit for bit.
// ---------------------------------------------------------------------------

/// A B operand packed into kNr-wide strips, grouped per (jc, pc) panel —
/// or, for shapes that fit a single panel, packed as contiguous Bᵀ rows for
/// the dot-chain driver (which beats the strip path at the small operand
/// sizes the NN layers emit).
struct PackedB {
  std::size_t k = 0;
  std::size_t n = 0;
  bool transposed = false;
  std::vector<double> data;

  bool ready() const { return k > 0 && n > 0; }
};

/// Packs the k x n matrix `b` (leading dimension ldb) into `out`.
void pack_b_matrix(std::size_t k, std::size_t n, const double* b,
                   std::size_t ldb, PackedB& out);

/// C (m x n, ldc) += A (m x k, lda) · B, with B prepacked by
/// pack_b_matrix(). Bit-identical to gemm_nn on the unpacked operand.
void gemm_nn_packed(std::size_t m, const double* a, std::size_t lda,
                    const PackedB& b, double* c, std::size_t ldc,
                    const Epilogue& ep = {});

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
