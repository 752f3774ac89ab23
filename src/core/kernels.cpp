#include "src/core/kernels.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "src/core/gemm_tile.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"

namespace coda::kernels {
namespace {

// The blocked path, for NN/TN calls whose B is too large for the register
// tile in gemm_tile.cpp (see use_tile). Its tile shape: kMr rows of C by
// kNr columns held in accumulators across a k panel (8x12 won an empirical
// sweep on the CI machine, with 6x12 a close second; several neighboring
// shapes — 4x16, 6x8, 6x16, 8x8 — fall off a vectorization cliff to well
// below the naive loops, so change with care and re-run bench_kernels).
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 12;
// Panel sizes: each packed kKc x kNr strip of B (~36KB) stays L1-resident
// while the kMr-row tiles of A stream over it; the kKc x kNc panel (~720KB)
// fits L2.
constexpr std::size_t kKc = 384;
constexpr std::size_t kNc = 240;

// Below this many flops (2*m*n*k) a GEMM is not worth a thread handoff.
constexpr std::size_t kParallelFlops = 4u << 20;

// Adds the bias row to an mr x nr tile of C already holding its final
// sums (the activation runs over all of C after the GEMM).
void add_bias(double* c, std::size_t ldc, std::size_t mr, std::size_t nr,
              const double* bias_tile) {
  for (std::size_t r = 0; r < mr; ++r) {
    double* const row = c + r * ldc;
    for (std::size_t v = 0; v < nr; ++v) row[v] += bias_tile[v];
  }
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
                bool final_panel, const double* bias_tile) {
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
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t v = 0; v < kNr; ++v) c[r * ldc + v] = acc[r][v];
  }
  if (final_panel && bias_tile != nullptr) {
    add_bias(c, ldc, kMr, kNr, bias_tile);
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
                  std::size_t kk, bool final_panel,
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
    for (std::size_t v = 0; v < NR; ++v) c[r * ldc + v] = acc[r][v];
  }
  if (final_panel && bias_tile != nullptr) {
    add_bias(c, ldc, mr, NR, bias_tile);
  }
}

// Width dispatch for ragged tiles. nr <= kNr always holds.
void micro_edge(const double* ap, const double* bp, double* c,
                std::size_t ldc, std::size_t mr, std::size_t nr,
                std::size_t kk, bool final_panel, const double* bias_tile) {
  switch (nr) {
    case 1: micro_edge_n<1>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 2: micro_edge_n<2>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 3: micro_edge_n<3>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 4: micro_edge_n<4>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 5: micro_edge_n<5>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 6: micro_edge_n<6>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 7: micro_edge_n<7>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 8: micro_edge_n<8>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 9: micro_edge_n<9>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 10: micro_edge_n<10>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    case 11: micro_edge_n<11>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
    default: micro_edge_n<kNr>(ap, bp, c, ldc, mr, kk, final_panel, bias_tile); break;
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
                const double* bias) {
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
          const double* bias_tile = bias ? bias + jc + j0 : nullptr;
          if (mr == kMr && nr == kNr) {
            micro_full(apack, bp, ct, ldc, kc, final_panel, bias_tile);
          } else {
            micro_edge(apack, bp, ct, ldc, mr, nr, kc, final_panel,
                       bias_tile);
          }
        }
      }
    }
  }
}

// The tile reads B in place once per 4-row block of C, so it wins while B
// stays cache-resident (48K doubles = 384 KB); larger B operands take the
// blocked path, which packs B once per panel.
constexpr std::size_t kTileMaxB = 48 * 1024;  // doubles of B

bool use_tile(std::size_t n, std::size_t k) { return n * k <= kTileMaxB; }

// Large shapes split by rows into one task group on the calling task's
// pool (the process-wide executor outside any task). The caller runs the
// chunks no idle worker has taken, so a split inside a fold finishes even
// when every worker is busy. Row-wise partitioning keeps results
// bit-identical to the single-threaded path (disjoint output rows,
// unchanged per-element reduction order).
template <typename Fn>
void parallel_rows(std::size_t m, std::size_t flops, Fn&& fn) {
  if (flops < kParallelFlops || m < 2 * kMr) {
    fn(std::size_t{0}, m);
    return;
  }
  ThreadPool& pool = ThreadPool::current();
  // One chunk per worker, and at least two: the caller takes a share too.
  const std::size_t chunks =
      std::min(std::max<std::size_t>(pool.size(), 2), m / kMr);
  // Round chunk sizes up to the register-tile height.
  const std::size_t chunk = ((m + chunks - 1) / chunks + kMr - 1) / kMr * kMr;
  TaskGroup group(pool);
  for (std::size_t r0 = 0; r0 < m; r0 += chunk) {
    const std::size_t r1 = std::min(m, r0 + chunk);
    group.submit([&fn, r0, r1] { fn(r0, r1); });
  }
  group.wait();
}

struct GemmCounters {
  obs::Counter& calls = obs::counter("kernel.gemm.calls");
  obs::Counter& flops = obs::counter("kernel.gemm.flops");
  obs::Histogram& seconds = obs::histogram("kernel.gemm.seconds");
};

GemmCounters& counters() {
  static GemmCounters c;
  return c;
}

// Every call, empty ones included, is one `kernel.gemm` region whose
// seconds also feed `kernel.gemm.seconds`. The epilogue's activation then
// runs over the m x n result C (leading dimension ldc) in one pass, in a
// sibling `kernel.activate` region, so GEMM time and rates count no
// transcendental and the activation cost has its own frames. It is
// elementwise on final values, so where it runs cannot change the bits.
template <typename Run>
void instrumented(std::size_t m, std::size_t n, std::size_t k, double* out,
                  std::size_t ldc, Activation act, Run&& run) {
  GemmCounters& c = counters();
  const std::size_t flops = 2 * m * n * k;
  c.calls.inc();
  c.flops.inc(flops);
  obs::Region region(obs::region_id<"kernel.gemm">());
  const bool ran = m > 0 && n > 0 && k > 0;
  if (ran) run(flops);
  c.seconds.observe(region.stop());
  if (!ran || act == Activation::kNone) return;
  const obs::Region activation(obs::region_id<"kernel.activate">());
  activate(act, out, m, n, ldc);
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

namespace detail {

const char* target_name(Target t) {
  switch (t) {
    case Target::kAvx512:
      return "avx512";
    case Target::kAvx2:
      return "avx2";
    case Target::kSse2:
      break;
  }
  return "sse2";
}

bool supported(Target t) {
#if defined(CODA_TILE_X86)
  __builtin_cpu_init();
  switch (t) {
    case Target::kAvx512:
      return __builtin_cpu_supports("x86-64-v4");
    case Target::kAvx2:
      return __builtin_cpu_supports("x86-64-v3");
    case Target::kSse2:
      break;
  }
#endif
  return t == Target::kSse2;
}

namespace {

std::atomic<Target>& target_slot() {
  static std::atomic<Target> slot{[] {
    Target best = Target::kSse2;
    for (const Target t : kTargets) {
      if (supported(t)) best = t;
    }
    return best;
  }()};
  return slot;
}

}  // namespace

Target active_target() {
  return target_slot().load(std::memory_order_relaxed);
}

Target use_target(Target t) {
  require(supported(t), std::string("kernels::detail::use_target: ") +
                            target_name(t) + " is not supported here");
  return target_slot().exchange(t, std::memory_order_relaxed);
}

}  // namespace detail

namespace {

// The active target's copy of the kernels.
const tile::Entry& entry() {
  switch (detail::active_target()) {
#if defined(CODA_TILE_X86)
    case detail::Target::kAvx512:
      return tile::avx512;
    case detail::Target::kAvx2:
      return tile::avx2;
#endif
    default:
      return tile::sse2;
  }
}

// The active target's tile over the rows [m0, m1) of `g`.
void run_tile(tile::Gemm g, std::size_t m0, std::size_t m1) {
  g.m0 = m0;
  g.m1 = m1;
  entry().gemm(g);
}

// NN and TN: the tile, unless B is too large to stream from cache once per
// row block; then the blocked 8x12 path packs it.
void gemm_nn_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
                std::size_t a_i, std::size_t a_k, const double* b,
                std::size_t ldb, double* c, std::size_t ldc,
                const Epilogue& ep) {
  instrumented(m, n, k, c, ldc, ep.act, [&](std::size_t flops) {
    if (use_tile(n, k)) {
      const tile::Gemm g{0, m, n, k, a, a_i, a_k, b, ldb, c, ldc,
                         tile::Start::kFromC, ep.bias};
      parallel_rows(m, flops, [&g](std::size_t m0, std::size_t m1) {
        run_tile(g, m0, m1);
      });
      return;
    }
    parallel_rows(m, flops, [&](std::size_t m0, std::size_t m1) {
      gemm_block(m0, m1, n, k, a, a_i, a_k, b, ldb, c, ldc, ep.bias);
    });
  });
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep) {
  gemm_nn_tn(m, n, k, a, /*a_i=*/lda, /*a_k=*/1, b, ldb, c, ldc, ep);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep) {
  gemm_nn_tn(m, n, k, a, /*a_i=*/1, /*a_k=*/lda, b, ldb, c, ldc, ep);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, const Epilogue& ep, bool accumulate) {
  instrumented(m, n, k, c, ldc, ep.act, [&](std::size_t flops) {
    // Bᵀ (k x n) is transposed once per call so the tile reads it row by
    // row. Each dot product starts at 0 and C is added at the end, the
    // reference's order.
    thread_local std::vector<double> bt;
    bt.resize(k * n);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t l = 0; l < k; ++l) bt[l * n + j] = b[j * ldb + l];
    }
    const tile::Gemm g{0, m, n, k, a, /*a_i=*/lda, /*a_k=*/1, bt.data(), n,
                       c, ldc,
                       accumulate ? tile::Start::kAddC
                                  : tile::Start::kOverwrite,
                       ep.bias};
    parallel_rows(m, flops, [&g](std::size_t m0, std::size_t m1) {
      run_tile(g, m0, m1);
    });
  });
}

void activate(Activation act, double* x, std::size_t rows, std::size_t cols,
              std::size_t ld) {
  entry().activate(act, x, rows, cols, ld);
}

void activate_grad(Activation act, const double* y, double* g,
                   std::size_t rows, std::size_t cols, std::size_t ld) {
  entry().activate_grad(act, y, g, rows, cols, ld);
}

void dropout_mask(std::uint64_t seed, std::uint64_t call, double rate,
                  double* mask, std::size_t n) {
  entry().dropout_mask(seed, call, rate, mask, n);
}

void detail::exp(double* x, std::size_t n) { entry().exp(x, n); }

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
