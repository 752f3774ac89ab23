// The register-tiled GEMM kernel behind gemm_nn / gemm_tn / gemm_nt
// (DESIGN.md §11). core/gemm_tile.cpp is compiled once per dispatch target
// (src/CMakeLists.txt) and each copy defines one `run_<target>` entry
// point; kernels.cpp picks one by cpuid. This header is internal to the
// kernel layer.
#pragma once

#include <cstddef>

#include "src/core/kernels.h"

namespace coda::kernels::tile {

/// How a C tile's accumulators start and how they are written back.
enum class Start : unsigned char {
  kFromC,     ///< acc = C; C = ep(acc + Σ)           (NN, TN)
  kAddC,      ///< acc = 0; C = ep(C + Σ)             (NT, accumulate)
  kOverwrite  ///< acc = 0; C = ep(0.0 + Σ)           (NT, overwrite)
};

/// One GEMM over the output rows [m0, m1): C(i, j) combines with
/// Σ_l a(i, l) · B[l][j] summed over ascending l, where a(i, l) is
/// a[i * a_i + l * a_k] and B is k x n row-major (leading dimension ldb),
/// read in place.
struct Gemm {
  std::size_t m0 = 0, m1 = 0, n = 0, k = 0;
  const double* a = nullptr;
  std::size_t a_i = 0, a_k = 0;
  const double* b = nullptr;
  std::size_t ldb = 0;
  double* c = nullptr;
  std::size_t ldc = 0;
  Start start = Start::kFromC;
  Epilogue ep;
};

void run_sse2(const Gemm& g);
void run_avx2(const Gemm& g);
void run_avx512(const Gemm& g);

}  // namespace coda::kernels::tile
