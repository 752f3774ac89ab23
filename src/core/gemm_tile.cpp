// The GEMM register tile and the elementwise math (DESIGN.md §11).
// src/CMakeLists.txt compiles this file once per dispatch target — x86-64
// (SSE2), x86-64-v3 (AVX2) and x86-64-v4 (AVX-512), or only the portable
// copy off x86 — with CODA_TILE_ENTRY naming that copy's Entry, always
// with -ffp-contract=off so a·b + c stays two roundings.
//
// Each C tile holds kMr rows by kNv vectors of accumulators in registers
// and runs acc[r][·] += a(r, l) · B[l][·] over ascending l, with B read in
// place. Lanes are distinct output columns, so every output element sees
// the same operations in the same order as the scalar reference loops, on
// every target and at every tile width.
//
// Everything here but the Entry has internal linkage: an inline function
// with external linkage compiled for a wider target could otherwise be the
// copy the linker keeps for the whole program.
#include "src/core/gemm_tile.h"

#include "src/core/vmath.h"

#ifndef CODA_TILE_ENTRY
#error "CODA_TILE_ENTRY must name this copy's Entry (src/CMakeLists.txt)"
#endif

namespace coda::kernels::tile {
namespace {

// The tile keeps kMr * kNv accumulators plus kNv B vectors and one
// broadcast live: 11 registers, within every target's 16. kW and Lane come
// from vmath.h.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNv = 2;

// One MR x (NV * VW) tile of C at (i, j).
template <std::size_t MR, std::size_t NV, std::size_t VW>
void tile(const Gemm& g, std::size_t i, std::size_t j) {
  using L = Lane<VW>;
  using V = typename L::V;
  double* const c = g.c + i * g.ldc + j;
  V acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      acc[r][v] = g.start == Start::kFromC ? L::load(c + r * g.ldc + v * VW)
                                           : V{};
    }
  }
  const double* a = g.a + i * g.a_i;
  const double* b = g.b + j;
  for (std::size_t l = 0; l < g.k; ++l) {
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v) bv[v] = L::load(b + v * VW);
    for (std::size_t r = 0; r < MR; ++r) {
      const double ar = a[r * g.a_i];
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += ar * bv[v];
    }
    a += g.a_k;
    b += g.ldb;
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t v = 0; v < NV; ++v) {
      double* const p = c + r * g.ldc + v * VW;
      V out = acc[r][v];
      if (g.start == Start::kAddC) {
        out = L::load(p) + out;
      } else if (g.start == Start::kOverwrite) {
        out = V{} + out;  // 0.0 + s, as a zero-filled C would give
      }
      if (g.bias != nullptr) out += L::load(g.bias + j + v * VW);
      L::store(p, out);
    }
  }
}

// The columns left after the full tiles (fewer than kNv * kW): one tile
// of as many whole vectors as fit, then halving widths down to one lane.
template <std::size_t MR, std::size_t NV>
std::size_t vector_rest(const Gemm& g, std::size_t i, std::size_t j) {
  if constexpr (NV > 0) {
    if (g.n - j >= NV * kW) {
      tile<MR, NV, kW>(g, i, j);
      return j + NV * kW;
    }
    return vector_rest<MR, NV - 1>(g, i, j);
  }
  return j;
}

template <std::size_t MR, std::size_t VW>
void narrow_rest(const Gemm& g, std::size_t i, std::size_t j) {
  if (g.n - j >= VW) {
    tile<MR, 1, VW>(g, i, j);
    j += VW;
  }
  if constexpr (VW > 1) narrow_rest<MR, VW / 2>(g, i, j);
}

template <std::size_t MR>
void row_block(const Gemm& g, std::size_t i) {
  std::size_t j = 0;
  for (; j + kNv * kW <= g.n; j += kNv * kW) tile<MR, kNv, kW>(g, i, j);
  j = vector_rest<MR, kNv - 1>(g, i, j);
  if constexpr (kW > 1) narrow_rest<MR, kW / 2>(g, i, j);
}

// The last g.m1 - i < kMr rows.
template <std::size_t MR>
void rows_rest(const Gemm& g, std::size_t i) {
  if constexpr (MR > 0) {
    if (g.m1 - i == MR) {
      row_block<MR>(g, i);
    } else {
      rows_rest<MR - 1>(g, i);
    }
  }
}

void gemm(const Gemm& g) {
  std::size_t i = g.m0;
  for (; i + kMr <= g.m1; i += kMr) row_block<kMr>(g, i);
  if (i < g.m1) rows_rest<kMr - 1>(g, i);
}

}  // namespace

// Address constants only: constant-initialized, no static constructor.
const Entry CODA_TILE_ENTRY = {gemm, activate_span, activate_grad_span,
                               exp_span, dropout_mask_span};

}  // namespace coda::kernels::tile
