#include "src/core/kernels.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"

namespace coda::kernels {
namespace {

// Register-tile shape: kMr rows of C by kNr columns held in accumulators
// across a k panel (8x12 won an empirical sweep on the CI machine, with
// 6x12 a close second; several neighboring shapes — 4x16, 6x8, 6x16, 8x8 —
// fall off a vectorization cliff to well below the naive loops, so change
// with care and re-run bench_kernels).
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 12;
// Panel sizes: each packed kKc x kNr strip of B (~36KB) stays L1-resident
// while the kMr-row tiles of A stream over it; the kKc x kNc panel (~720KB)
// fits L2.
constexpr std::size_t kKc = 384;
constexpr std::size_t kNc = 240;

// Below this many flops (2*m*n*k) a GEMM is not worth a clock read, let
// alone a thread handoff.
constexpr std::size_t kTimedFlops = 1u << 20;
constexpr std::size_t kParallelFlops = 4u << 20;

double apply_epilogue(double v, const double* bias_tile, std::size_t j,
                      Activation act) {
  if (bias_tile != nullptr) v += bias_tile[j];
  return activate(v, act);
}

// Full kMr x kNr micro-kernel over one packed k strip. The C tile is
// carried in `acc` for the whole panel (loaded from and stored back to
// memory at the panel boundary), so the per-element reduction order over k
// is exactly ascending — identical to the naive loops. `a_i`/`a_k` are the
// strides to the next row / next k element of A, which lets the same kernel
// serve both the NN (a_i=lda, a_k=1) and TN (a_i=1, a_k=lda) orientations.
// `bp` is a packed B strip: kNr contiguous doubles per k step.
void micro_full(const double* __restrict ap, const double* __restrict bp,
                double* __restrict c, std::size_t ldc, std::size_t kk,
                bool final_panel, const Epilogue& ep,
                const double* bias_tile) {
  double acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t v = 0; v < kNr; ++v) acc[r][v] = c[r * ldc + v];
  }
  for (std::size_t l = 0; l < kk; ++l) {
    const double* __restrict brow = bp + l * kNr;
    const double* __restrict arow = ap + l * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const double ar = arow[r];
      for (std::size_t v = 0; v < kNr; ++v) acc[r][v] += ar * brow[v];
    }
  }
  if (final_panel && ep.active()) {
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t v = 0; v < kNr; ++v) {
        c[r * ldc + v] = apply_epilogue(acc[r][v], bias_tile, v, ep.act);
      }
    }
  } else {
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t v = 0; v < kNr; ++v) c[r * ldc + v] = acc[r][v];
    }
  }
}

// Ragged-edge tile (mr < kMr and/or nr < kNr), compiled once per edge width
// NR so the inner loop keeps a constant trip count and computes exactly the
// live lanes — the old kNr-wide edge kernel burned up to 2/3 of its flops
// on zero-padded dead lanes at the narrow shapes the NN layers emit
// (out_channels = 16, 4H = 64, head width 1). Dead-lane removal cannot
// change stored values: accumulator lanes are independent and the reduction
// order per live element stays ascending k.
template <std::size_t NR>
void micro_edge_n(const double* __restrict ap, const double* __restrict bp,
                  double* __restrict c, std::size_t ldc, std::size_t mr,
                  std::size_t kk, bool final_panel, const Epilogue& ep,
                  const double* bias_tile) {
  double acc[kMr][NR];
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t v = 0; v < NR; ++v) acc[r][v] = c[r * ldc + v];
  }
  for (std::size_t l = 0; l < kk; ++l) {
    const double* __restrict brow = bp + l * kNr;
    const double* __restrict arow = ap + l * kMr;
    for (std::size_t r = 0; r < mr; ++r) {
      const double ar = arow[r];
      for (std::size_t v = 0; v < NR; ++v) acc[r][v] += ar * brow[v];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t v = 0; v < NR; ++v) {
      const double out = acc[r][v];
      c[r * ldc + v] = final_panel && ep.active()
                           ? apply_epilogue(out, bias_tile, v, ep.act)
                           : out;
    }
  }
}

// Width dispatch for ragged tiles. nr <= kNr always holds.
void micro_edge(const double* ap, const double* bp, double* c,
                std::size_t ldc, std::size_t mr, std::size_t nr,
                std::size_t kk, bool final_panel, const Epilogue& ep,
                const double* bias_tile) {
  switch (nr) {
    case 1: micro_edge_n<1>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 2: micro_edge_n<2>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 3: micro_edge_n<3>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 4: micro_edge_n<4>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 5: micro_edge_n<5>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 6: micro_edge_n<6>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 7: micro_edge_n<7>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 8: micro_edge_n<8>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 9: micro_edge_n<9>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 10: micro_edge_n<10>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    case 11: micro_edge_n<11>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
    default: micro_edge_n<kNr>(ap, bp, c, ldc, mr, kk, final_panel, ep, bias_tile); break;
  }
}

// Packs B[pc:pc+kc, jc:jc+nc] into kNr-wide strips: strip t holds the tile
// columns [jc + t*kNr, ...) as kc contiguous rows of kNr doubles,
// zero-padded on the ragged right edge. Pure data movement — it does not
// touch the reduction order.
void pack_b(const double* b, std::size_t ldb, std::size_t kc, std::size_t nc,
            double* __restrict packed) {
  const std::size_t tiles = (nc + kNr - 1) / kNr;
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t j0 = t * kNr;
    const std::size_t nr = std::min(kNr, nc - j0);
    double* __restrict dst = packed + t * kc * kNr;
    for (std::size_t l = 0; l < kc; ++l) {
      const double* __restrict src = b + l * ldb + j0;
      for (std::size_t v = 0; v < nr; ++v) dst[l * kNr + v] = src[v];
      for (std::size_t v = nr; v < kNr; ++v) dst[l * kNr + v] = 0.0;
    }
  }
}

// Packs the kMr x kc row tile of A starting at `a` into [l][r] interleaved
// order, so the micro-kernel reads kMr contiguous doubles per k step
// regardless of the source orientation. Rows past mr are left unwritten —
// micro_edge never reads them.
void pack_a(const double* a, std::size_t a_i, std::size_t a_k, std::size_t mr,
            std::size_t kc, double* __restrict packed) {
  for (std::size_t l = 0; l < kc; ++l) {
    for (std::size_t r = 0; r < mr; ++r) {
      packed[l * kMr + r] = a[r * a_i + l * a_k];
    }
  }
}

// Blocked driver for the NN/TN orientations over the row range [m0, m1).
void gemm_block(std::size_t m0, std::size_t m1, std::size_t n, std::size_t k,
                const double* a, std::size_t a_i, std::size_t a_k,
                const double* b, std::size_t ldb, double* c, std::size_t ldc,
                const Epilogue& ep) {
  thread_local std::vector<double> packed;
  packed.resize(kKc * (kNc + kNr) + kKc * kMr);
  double* const bpack = packed.data();
  double* const apack = packed.data() + kKc * (kNc + kNr);
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const bool final_panel = pc + kc == k;
      pack_b(b + pc * ldb + jc, ldb, kc, nc, bpack);
      for (std::size_t i0 = m0; i0 < m1; i0 += kMr) {
        const std::size_t mr = std::min(kMr, m1 - i0);
        pack_a(a + i0 * a_i + pc * a_k, a_i, a_k, mr, kc, apack);
        for (std::size_t j0 = 0; j0 < nc; j0 += kNr) {
          const std::size_t nr = std::min(kNr, nc - j0);
          const double* bp = bpack + (j0 / kNr) * kc * kNr;
          double* ct = c + i0 * ldc + jc + j0;
          const double* bias_tile = ep.bias ? ep.bias + jc + j0 : nullptr;
          if (mr == kMr && nr == kNr) {
            micro_full(apack, bp, ct, ldc, kc, final_panel, ep, bias_tile);
          } else {
            micro_edge(apack, bp, ct, ldc, mr, nr, kc, final_panel, ep,
                       bias_tile);
          }
        }
      }
    }
  }
}

// Blocked driver identical to gemm_block, but consuming a B packed once by
// pack_b_matrix() instead of packing per call. The (jc, pc) panel walk and
// per-panel strip layout match pack_b_matrix exactly, so every micro-kernel
// sees the same packed bytes gemm_block would have produced.
void gemm_block_packed(std::size_t m0, std::size_t m1, const PackedB& b,
                       const double* a, std::size_t a_i, std::size_t a_k,
                       double* c, std::size_t ldc, const Epilogue& ep) {
  const std::size_t n = b.n;
  const std::size_t k = b.k;
  thread_local std::vector<double> apacked;
  apacked.resize(kKc * kMr);
  double* const apack = apacked.data();
  std::size_t col_base = 0;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t tiles = (nc + kNr - 1) / kNr;
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const bool final_panel = pc + kc == k;
      const double* bpack = b.data.data() + col_base + tiles * kNr * pc;
      for (std::size_t i0 = m0; i0 < m1; i0 += kMr) {
        const std::size_t mr = std::min(kMr, m1 - i0);
        pack_a(a + i0 * a_i + pc * a_k, a_i, a_k, mr, kc, apack);
        for (std::size_t j0 = 0; j0 < nc; j0 += kNr) {
          const std::size_t nr = std::min(kNr, nc - j0);
          const double* bp = bpack + (j0 / kNr) * kc * kNr;
          double* ct = c + i0 * ldc + jc + j0;
          const double* bias_tile = ep.bias ? ep.bias + jc + j0 : nullptr;
          if (mr == kMr && nr == kNr) {
            micro_full(apack, bp, ct, ldc, kc, final_panel, ep, bias_tile);
          } else {
            micro_edge(apack, bp, ct, ldc, mr, nr, kc, final_panel, ep,
                       bias_tile);
          }
        }
      }
    }
    col_base += tiles * kNr * k;
  }
}

// NN driver over Bᵀ packed contiguous (bt row j = column j of B), for
// shapes that fit a single (jc, pc) panel. Each output element seeds its
// accumulator from C and adds products in ascending k — the exact chain the
// blocked driver produces when k <= kKc, so the two are bit-identical
// there. With both operands read contiguously the 4-wide dot chains beat
// the pack-per-call strip path at the small operand sizes the NN layers
// emit (measured ~8 vs ~6 GFLOP/s portable).
void gemm_nn_bt_block(std::size_t m0, std::size_t m1, std::size_t n,
                      std::size_t k, const double* a, std::size_t lda,
                      const double* bt, double* c, std::size_t ldc,
                      const Epilogue& ep) {
  for (std::size_t i = m0; i < m1; ++i) {
    const double* __restrict ar = a + i * lda;
    double* __restrict crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* __restrict b0 = bt + j * k;
      const double* __restrict b1 = bt + (j + 1) * k;
      const double* __restrict b2 = bt + (j + 2) * k;
      const double* __restrict b3 = bt + (j + 3) * k;
      double s0 = crow[j], s1 = crow[j + 1], s2 = crow[j + 2],
             s3 = crow[j + 3];
      for (std::size_t l = 0; l < k; ++l) {
        const double av = ar[l];
        s0 += av * b0[l];
        s1 += av * b1[l];
        s2 += av * b2[l];
        s3 += av * b3[l];
      }
      if (ep.active()) {
        crow[j] = apply_epilogue(s0, ep.bias, j, ep.act);
        crow[j + 1] = apply_epilogue(s1, ep.bias, j + 1, ep.act);
        crow[j + 2] = apply_epilogue(s2, ep.bias, j + 2, ep.act);
        crow[j + 3] = apply_epilogue(s3, ep.bias, j + 3, ep.act);
      } else {
        crow[j] = s0;
        crow[j + 1] = s1;
        crow[j + 2] = s2;
        crow[j + 3] = s3;
      }
    }
    for (; j < n; ++j) {
      const double* __restrict brow = bt + j * k;
      double s = crow[j];
      for (std::size_t l = 0; l < k; ++l) s += ar[l] * brow[l];
      crow[j] = ep.active() ? apply_epilogue(s, ep.bias, j, ep.act) : s;
    }
  }
}

// Transposes B (k x n, ldb) into contiguous Bᵀ rows for gemm_nn_bt_block.
void pack_bt(const double* b, std::size_t ldb, std::size_t k, std::size_t n,
             double* __restrict bt) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < k; ++l) bt[j * k + l] = b[l * ldb + j];
  }
}

// The Bᵀ dot-chain path is bit-identical to the blocked driver only while
// the whole reduction is one k panel; one jc block keeps the transpose
// scratch bounded.
bool use_bt_path(std::size_t n, std::size_t k) {
  return k <= kKc && n <= kNc;
}

// NT driver over the row range [m0, m1): C(i,j) += dot(A row i, B row j).
// Both rows are contiguous in k, so the kernel unrolls 4 independent dot
// chains per A row; each chain reduces in ascending k order.
template <bool Accumulate>
void gemm_nt_block(std::size_t m0, std::size_t m1, std::size_t n,
                   std::size_t k, const double* a, std::size_t lda,
                   const double* b, std::size_t ldb, double* c,
                   std::size_t ldc, const Epilogue& ep) {
  for (std::size_t i = m0; i < m1; ++i) {
    const double* __restrict ar = a + i * lda;
    double* __restrict crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* __restrict b0 = b + j * ldb;
      const double* __restrict b1 = b + (j + 1) * ldb;
      const double* __restrict b2 = b + (j + 2) * ldb;
      const double* __restrict b3 = b + (j + 3) * ldb;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        const double av = ar[l];
        s0 += av * b0[l];
        s1 += av * b1[l];
        s2 += av * b2[l];
        s3 += av * b3[l];
      }
      const double c0 = Accumulate ? crow[j] : 0.0;
      const double c1 = Accumulate ? crow[j + 1] : 0.0;
      const double c2 = Accumulate ? crow[j + 2] : 0.0;
      const double c3 = Accumulate ? crow[j + 3] : 0.0;
      if (ep.active()) {
        crow[j] = apply_epilogue(c0 + s0, ep.bias, j, ep.act);
        crow[j + 1] = apply_epilogue(c1 + s1, ep.bias, j + 1, ep.act);
        crow[j + 2] = apply_epilogue(c2 + s2, ep.bias, j + 2, ep.act);
        crow[j + 3] = apply_epilogue(c3 + s3, ep.bias, j + 3, ep.act);
      } else {
        crow[j] = c0 + s0;
        crow[j + 1] = c1 + s1;
        crow[j + 2] = c2 + s2;
        crow[j + 3] = c3 + s3;
      }
    }
    for (; j < n; ++j) {
      const double* __restrict brow = b + j * ldb;
      double s = 0.0;
      for (std::size_t l = 0; l < k; ++l) s += ar[l] * brow[l];
      const double base = Accumulate ? crow[j] : 0.0;
      crow[j] = ep.active() ? apply_epilogue(base + s, ep.bias, j, ep.act)
                            : base + s;
    }
  }
}

// Lazily created pool for large shapes; null on single-core machines so
// small boxes never pay thread-handoff costs. Row-wise partitioning keeps
// results bit-identical to the single-threaded path (disjoint output rows,
// unchanged per-element reduction order).
ThreadPool* pool() {
  static const std::unique_ptr<ThreadPool> p = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? std::make_unique<ThreadPool>(hc) : nullptr;
  }();
  return p.get();
}

template <typename Fn>
void parallel_rows(std::size_t m, std::size_t flops, Fn&& fn) {
  ThreadPool* p = pool();
  if (p == nullptr || flops < kParallelFlops || m < 2 * kMr) {
    fn(std::size_t{0}, m);
    return;
  }
  const std::size_t chunks = std::min<std::size_t>(p->size(), m / kMr);
  // Round chunk sizes up to the register-tile height.
  const std::size_t chunk = ((m + chunks - 1) / chunks + kMr - 1) / kMr * kMr;
  std::vector<std::future<void>> futures;
  for (std::size_t r0 = 0; r0 < m; r0 += chunk) {
    const std::size_t r1 = std::min(m, r0 + chunk);
    futures.push_back(p->submit([&fn, r0, r1] { fn(r0, r1); }));
  }
  for (auto& f : futures) f.get();
}

struct GemmCounters {
  obs::Counter& calls = obs::counter("kernel.gemm.calls");
  obs::Counter& flops = obs::counter("kernel.gemm.flops");
  // The flops of the calls `seconds` times (those >= kTimedFlops): the
  // numerator that matches it in a derived GF/s rate.
  obs::Counter& timed_flops = obs::counter("kernel.gemm.timed_flops");
  obs::Histogram& seconds = obs::histogram("kernel.gemm.seconds");
};

GemmCounters& counters() {
  static GemmCounters c;
  return c;
}

template <typename Run>
void instrumented(std::size_t m, std::size_t n, std::size_t k, Run&& run) {
  GemmCounters& c = counters();
  const std::size_t flops = 2 * m * n * k;
  c.calls.inc();
  c.flops.inc(flops);
  if (m == 0 || n == 0 || k == 0) return;
  if (flops >= kTimedFlops) {
    Stopwatch timer;
    run(flops);
    c.seconds.observe(timer.elapsed_seconds());
    c.timed_flops.inc(flops);
  } else {
    run(flops);
  }
}

void check_shapes(const Matrix& a, const Matrix& b, const Matrix& c,
                  std::size_t m, std::size_t n, std::size_t k,
                  const char* who) {
  require(a.rows() * a.cols() >= m * k && b.rows() * b.cols() >= k * n,
          std::string(who) + ": input shape mismatch");
  require(c.rows() == m && c.cols() == n,
          std::string(who) + ": output shape mismatch");
}

}  // namespace

double activate(double v, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return v > 0.0 ? v : 0.0;
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-v));
    case Activation::kTanh:
      return std::tanh(v);
    case Activation::kNone:
      break;
  }
  return v;
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep) {
  instrumented(m, n, k, [&](std::size_t flops) {
    if (use_bt_path(n, k)) {
      thread_local std::vector<double> btv;
      btv.resize(n * k);
      pack_bt(b, ldb, k, n, btv.data());
      const double* bt = btv.data();
      parallel_rows(m, flops, [&, bt](std::size_t m0, std::size_t m1) {
        gemm_nn_bt_block(m0, m1, n, k, a, lda, bt, c, ldc, ep);
      });
      return;
    }
    parallel_rows(m, flops, [&](std::size_t m0, std::size_t m1) {
      gemm_block(m0, m1, n, k, a, /*a_i=*/lda, /*a_k=*/1, b, ldb, c, ldc, ep);
    });
  });
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep) {
  instrumented(m, n, k, [&](std::size_t flops) {
    if (use_bt_path(n, k)) {
      // Aᵀ rows (columns of the stored k x m operand) are packed contiguous
      // alongside Bᵀ; pack_bt's (j, l) walk produces exactly that layout.
      thread_local std::vector<double> atv;
      thread_local std::vector<double> btv;
      atv.resize(m * k);
      btv.resize(n * k);
      pack_bt(a, lda, k, m, atv.data());
      pack_bt(b, ldb, k, n, btv.data());
      const double* at = atv.data();
      const double* bt = btv.data();
      parallel_rows(m, flops, [&, at, bt](std::size_t m0, std::size_t m1) {
        gemm_nn_bt_block(m0, m1, n, k, at, k, bt, c, ldc, ep);
      });
      return;
    }
    parallel_rows(m, flops, [&](std::size_t m0, std::size_t m1) {
      gemm_block(m0, m1, n, k, a, /*a_i=*/1, /*a_k=*/lda, b, ldb, c, ldc, ep);
    });
  });
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep, bool accumulate) {
  instrumented(m, n, k, [&](std::size_t flops) {
    parallel_rows(m, flops, [&](std::size_t m0, std::size_t m1) {
      if (accumulate) {
        gemm_nt_block<true>(m0, m1, n, k, a, lda, b, ldb, c, ldc, ep);
      } else {
        gemm_nt_block<false>(m0, m1, n, k, a, lda, b, ldb, c, ldc, ep);
      }
    });
  });
}

void pack_b_matrix(std::size_t k, std::size_t n, const double* b,
                   std::size_t ldb, PackedB& out) {
  require(k > 0 && n > 0, "pack_b_matrix: empty operand");
  out.k = k;
  out.n = n;
  out.transposed = use_bt_path(n, k);
  if (out.transposed) {
    out.data.resize(n * k);
    pack_bt(b, ldb, k, n, out.data.data());
    return;
  }
  std::size_t total = 0;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    total += ((nc + kNr - 1) / kNr) * kNr * k;
  }
  out.data.resize(total);
  std::size_t col_base = 0;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t tiles = (nc + kNr - 1) / kNr;
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      pack_b(b + pc * ldb + jc, ldb, kc, nc,
             out.data.data() + col_base + tiles * kNr * pc);
    }
    col_base += tiles * kNr * k;
  }
}

void gemm_nn_packed(std::size_t m, const double* a, std::size_t lda,
                    const PackedB& b, double* c, std::size_t ldc,
                    const Epilogue& ep) {
  require(b.ready(), "gemm_nn_packed: operand not packed");
  instrumented(m, b.n, b.k, [&](std::size_t flops) {
    parallel_rows(m, flops, [&](std::size_t m0, std::size_t m1) {
      if (b.transposed) {
        gemm_nn_bt_block(m0, m1, b.n, b.k, a, lda, b.data.data(), c, ldc, ep);
      } else {
        gemm_block_packed(m0, m1, b, a, /*a_i=*/lda, /*a_k=*/1, c, ldc, ep);
      }
    });
  });
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c,
                 const Epilogue& ep) {
  require(a.cols() == b.rows(), "matmul_into: inner dimension mismatch");
  check_shapes(a, b, c, a.rows(), b.cols(), a.cols(), "matmul_into");
  gemm_nn(a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(),
          b.data().data(), b.cols(), c.data().data(), c.cols(), ep);
}

void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& c,
                    const Epilogue& ep) {
  require(a.rows() == b.rows(), "matmul_tn_into: inner dimension mismatch");
  check_shapes(a, b, c, a.cols(), b.cols(), a.rows(), "matmul_tn_into");
  gemm_tn(a.cols(), b.cols(), a.rows(), a.data().data(), a.cols(),
          b.data().data(), b.cols(), c.data().data(), c.cols(), ep);
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c,
                    const Epilogue& ep) {
  require(a.cols() == b.cols(), "matmul_nt_into: inner dimension mismatch");
  check_shapes(a, b, c, a.rows(), b.rows(), a.cols(), "matmul_nt_into");
  gemm_nt(a.rows(), b.rows(), a.cols(), a.data().data(), a.cols(),
          b.data().data(), b.cols(), c.data().data(), c.cols(), ep);
}

Matrix matmul(const Matrix& a, const Matrix& b, const Epilogue& ep) {
  Matrix c(a.rows(), b.cols());
  matmul_into(a, b, c, ep);
  return c;
}

void axpy(std::size_t n, double alpha, const double* __restrict x,
          double* __restrict y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(std::size_t n, double alpha, double* __restrict x) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double dot(std::size_t n, const double* __restrict x,
           const double* __restrict y) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

void col_sums_add(std::size_t m, std::size_t n, const double* a,
                  std::size_t lda, double* __restrict out) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict row = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

}  // namespace coda::kernels
