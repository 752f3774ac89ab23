// The elementwise math of the kernel layer (DESIGN.md §11, "Elementwise
// math"): exp, sigmoid, tanh, the activation spans built on them and the
// dropout mask, written once over GCC vector types. Only core/gemm_tile.cpp
// includes this header, so each dispatch target's copy of the tile compiles
// its own instance with -ffp-contract=off; everything here has internal
// linkage for the reason given there.
//
// Every lane runs the same operations in the same order at every vector
// width, and a ragged tail runs the same vector code on a zero-padded
// copy, so results are bit-identical across targets. No libm call is
// made: the results do not depend on the host's C library either.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/core/kernels.h"

namespace coda::kernels::tile {
namespace {

// kW doubles per vector register of this target.
#if defined(__AVX512F__)
constexpr std::size_t kW = 8;
#elif defined(__AVX2__)
constexpr std::size_t kW = 4;
#else
constexpr std::size_t kW = 2;
#endif

// VW doubles as one value: a GCC vector, or a plain double when VW is 1.
// Loads and stores are unaligned. U is the matching vector of 64-bit
// unsigned integers, for the bit manipulations below.
template <std::size_t VW>
struct Lane {
  typedef double V __attribute__((vector_size(VW * sizeof(double))));
  typedef std::uint64_t U __attribute__((vector_size(VW * sizeof(double))));
  typedef double Unaligned __attribute__((vector_size(VW * sizeof(double)),
                                          aligned(alignof(double)),
                                          may_alias));
  static V load(const double* p) {
    return *reinterpret_cast<const Unaligned*>(p);
  }
  static void store(double* p, V v) { *reinterpret_cast<Unaligned*>(p) = v; }
};

template <>
struct Lane<1> {
  using V = double;
  static double load(const double* p) { return *p; }
  static void store(double* p, double v) { *p = v; }
};

using L = Lane<kW>;
using V = L::V;
using U = L::U;

// Vector casts between same-sized types reinterpret the bits.
inline U bits(V v) { return (U)v; }
inline V from_bits(U u) { return (V)u; }

// exp(x): Cody–Waite reduction x = k·ln2 + r, |r| <= ln2/2, then fdlibm's
// rational form of e^r (Remez polynomial in r², under 1 ulp), scaled by
// 2^k in two exact halves so subnormal and overflowing results round once.
//  * k = round(x·log2e) by the shift trick: t = x·log2e + 1.5·2^52 holds k
//    in its low mantissa bits, and bits(t) − bits(1.5·2^52) is k itself.
//  * ln2_hi has 32 trailing zero bits, so k·ln2_hi is exact for |k| < 2^21
//    and x − k·ln2_hi is exact; ln2_lo carries the rest of ln2.
//  * x is clamped to [−746, 710], beyond which e^x rounds to 0 / inf;
//    comparisons with NaN are false, so NaN passes the clamp and
//    propagates.
constexpr double kExpMax = 710.0;
constexpr double kExpMin = -746.0;
constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr double kShift = 0x1.8p52;
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kP1 = 0x1.555555555553ep-3;
constexpr double kP2 = -0x1.6c16c16bebd93p-9;
constexpr double kP3 = 0x1.1566aaf25de2cp-14;
constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
constexpr double kP5 = 0x1.6376972bea4d0p-25;

inline V exp_v(V x) {
  x = x > kExpMax ? V{} + kExpMax : x;
  x = x < kExpMin ? V{} + kExpMin : x;
  const V t = x * kLog2e + kShift;
  const V kd = t - kShift;
  const V hi = x - kd * kLn2Hi;
  const V lo = kd * kLn2Lo;
  const V r = hi - lo;
  const V rr = r * r;
  const V c = r - rr * (kP1 + rr * (kP2 + rr * (kP3 + rr * (kP4 + rr * kP5))));
  const V y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // 2^k = 2^k1 · 2^k2 with k1 = floor(k / 2), built as exponent fields;
  // |k| <= 1077 here, so k + 2048 is positive and the shifts are logical.
  const U kb = bits(t) - bits(V{} + kShift) + 2048;
  const U h = kb >> 1;  // k1 + 1024
  const V s1 = from_bits((h - 1) << 52);
  const V s2 = from_bits((kb - h - 1) << 52);
  return (y * s1) * s2;
}

// 1 / (1 + e^−x): 0 and 1 at the ends, NaN propagates.
inline V sigmoid_v(V x) { return 1.0 / (1.0 + exp_v(-x)); }

// tanh(x), Cephes' split on a = |x|: for a <= 0.625 the odd rational
// a + a·a²·P(a²)/Q(a²), otherwise 1 − 2/(e^{2a} + 1); then the sign of x.
// a is clamped to 20, past which tanh rounds to 1. Both branches are
// computed for every lane and one is selected, so a lane's result does not
// depend on its neighbours.
constexpr double kTanhSplit = 0.625;
constexpr double kTanhSaturate = 20.0;
constexpr double kTp0 = -9.64399179425052238628E-1;
constexpr double kTp1 = -9.92877231001918586564E1;
constexpr double kTp2 = -1.61468768441708447952E3;
constexpr double kTq0 = 1.12811678491632931402E2;
constexpr double kTq1 = 2.23548839060100448583E3;
constexpr double kTq2 = 4.84406305325125486048E3;

inline V tanh_v(V x) {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  V a = from_bits(bits(x) & ~kSign);
  a = a > kTanhSaturate ? V{} + kTanhSaturate : a;
  const V big = 1.0 - 2.0 / (exp_v(a + a) + 1.0);
  const V s = a * a;
  const V p = (kTp0 * s + kTp1) * s + kTp2;
  const V q = ((s + kTq0) * s + kTq1) * s + kTq2;
  const V small = a + a * s * (p / q);
  const V mag = a > kTanhSplit ? big : small;
  return from_bits(bits(mag) | (bits(x) & kSign));  // tanh(−0) = −0
}

// x = f(x) over x[0, n): whole vectors, then the tail through the same f
// on a zero-padded vector.
template <typename F>
void map(double* x, std::size_t n, F f) {
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) L::store(x + i, f(L::load(x + i)));
  if (i == n) return;
  double pad[kW] = {};
  for (std::size_t j = i; j < n; ++j) pad[j - i] = x[j];
  L::store(pad, f(L::load(pad)));
  for (std::size_t j = i; j < n; ++j) x[j] = pad[j - i];
}

// g = f(y, g) over [0, n), tails as in map.
template <typename F>
void map2(const double* y, double* g, std::size_t n, F f) {
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    L::store(g + i, f(L::load(y + i), L::load(g + i)));
  }
  if (i == n) return;
  double py[kW] = {};
  double pg[kW] = {};
  for (std::size_t j = i; j < n; ++j) {
    py[j - i] = y[j];
    pg[j - i] = g[j];
  }
  L::store(pg, f(L::load(py), L::load(pg)));
  for (std::size_t j = i; j < n; ++j) g[j] = pg[j - i];
}

void exp_span(double* x, std::size_t n) { map(x, n, exp_v); }

// f over each of `rows` rows of `cols` elements, row r at x + r * ld.
template <typename F>
void map_rows(double* x, std::size_t rows, std::size_t cols, std::size_t ld,
              F f) {
  for (std::size_t r = 0; r < rows; ++r) map(x + r * ld, cols, f);
}

template <typename F>
void map2_rows(const double* y, double* g, std::size_t rows, std::size_t cols,
               std::size_t ld, F f) {
  for (std::size_t r = 0; r < rows; ++r) map2(y + r * ld, g + r * ld, cols, f);
}

void activate_span(Activation act, double* x, std::size_t rows,
                   std::size_t cols, std::size_t ld) {
  switch (act) {
    case Activation::kRelu:
      return map_rows(x, rows, cols, ld,
                      [](V v) { return v > 0.0 ? v : V{}; });
    case Activation::kSigmoid:
      return map_rows(x, rows, cols, ld, sigmoid_v);
    case Activation::kTanh:
      return map_rows(x, rows, cols, ld, tanh_v);
    case Activation::kNone:
      return;
  }
}

void activate_grad_span(Activation act, const double* y, double* g,
                        std::size_t rows, std::size_t cols, std::size_t ld) {
  switch (act) {
    case Activation::kRelu:
      return map2_rows(y, g, rows, cols, ld,
                       [](V yv, V gv) { return yv > 0.0 ? gv : V{}; });
    case Activation::kSigmoid:
      return map2_rows(y, g, rows, cols, ld,
                       [](V yv, V gv) { return gv * (yv * (1.0 - yv)); });
    case Activation::kTanh:
      return map2_rows(y, g, rows, cols, ld,
                       [](V yv, V gv) { return gv * (1.0 - yv * yv); });
    case Activation::kNone:
      return;
  }
}

// SplitMix64's output function, for a scalar or a vector of uint64.
template <typename T>
T mix64(T z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
  return z ^ (z >> 31);
}
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15u;

// The dropout rule (kernels::dropout_mask): element i of call c keeps when
// the top 53 bits of w = mix64(s + (i + 1)·γ), s = mix64(seed + (c + 1)·γ),
// are at least ceil(rate · 2^53) — the i-th draw of a SplitMix64 stream
// seeded by the c-th draw of one seeded by `seed`.
void dropout_mask_span(std::uint64_t seed, std::uint64_t call, double rate,
                       double* mask, std::size_t n) {
  const std::uint64_t s = mix64(seed + (call + 1) * kGamma);
  // rate · 2^53 is exact, and its ceiling is an integer below 2^53.
  const auto thr = static_cast<std::uint64_t>(std::ceil(rate * 0x1p53));
  const V keep = V{} + 1.0 / (1.0 - rate);
  U lane{};
  for (std::size_t j = 0; j < kW; ++j) lane[j] = j + 1;
  std::size_t i = 0;
  auto draw = [&](std::size_t at) {
    const U w = mix64(s + (lane + at) * kGamma);
    return (w >> 11) >= thr ? keep : V{};
  };
  for (; i + kW <= n; i += kW) L::store(mask + i, draw(i));
  if (i == n) return;
  double pad[kW];
  L::store(pad, draw(i));
  for (std::size_t j = i; j < n; ++j) mask[j] = pad[j - i];
}

}  // namespace
}  // namespace coda::kernels::tile
