// The per-target kernels (DESIGN.md §11): the register-tiled GEMM behind
// gemm_nn / gemm_tn / gemm_nt and the elementwise math of core/vmath.h.
// core/gemm_tile.cpp is compiled once per dispatch target
// (src/CMakeLists.txt) and each copy defines one `Entry`; kernels.cpp picks
// one by cpuid. This header is internal to the kernel layer.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/core/kernels.h"

namespace coda::kernels::tile {

/// How a C tile's accumulators start and how they are written back.
enum class Start : unsigned char {
  kFromC,     ///< acc = C; C = acc + Σ + bias        (NN, TN)
  kAddC,      ///< acc = 0; C = C + Σ + bias          (NT, accumulate)
  kOverwrite  ///< acc = 0; C = 0.0 + Σ + bias        (NT, overwrite)
};

/// One GEMM over the output rows [m0, m1): C(i, j) combines with
/// Σ_l a(i, l) · B[l][j] summed over ascending l, where a(i, l) is
/// a[i * a_i + l * a_k] and B is k x n row-major (leading dimension ldb),
/// read in place. `bias`, when set, is a length-n row added last; the
/// activation of an Epilogue is applied by the caller afterwards.
struct Gemm {
  std::size_t m0 = 0, m1 = 0, n = 0, k = 0;
  const double* a = nullptr;
  std::size_t a_i = 0, a_k = 0;
  const double* b = nullptr;
  std::size_t ldb = 0;
  double* c = nullptr;
  std::size_t ldc = 0;
  Start start = Start::kFromC;
  const double* bias = nullptr;
};

/// One target's copy of the kernels: the GEMM over the rows [g.m0, g.m1)
/// and the span forms of kernels::activate, kernels::activate_grad,
/// kernels::detail::exp and kernels::dropout_mask.
struct Entry {
  void (*gemm)(const Gemm& g);
  void (*activate)(Activation act, double* x, std::size_t rows,
                   std::size_t cols, std::size_t ld);
  void (*activate_grad)(Activation act, const double* y, double* g,
                        std::size_t rows, std::size_t cols, std::size_t ld);
  void (*exp)(double* x, std::size_t n);
  void (*dropout_mask)(std::uint64_t seed, std::uint64_t call, double rate,
                       double* mask, std::size_t n);
};

extern const Entry sse2;
extern const Entry avx2;
extern const Entry avx512;

}  // namespace coda::kernels::tile
