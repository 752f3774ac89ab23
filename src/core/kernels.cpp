#include "src/core/kernels.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "src/core/gemm_tile.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"

namespace coda::kernels {
namespace {

// Below this many flops (2*m*n*k) a GEMM is not worth a thread handoff.
constexpr std::size_t kParallelFlops = 4u << 20;

// Row-split granularity: a split needs at least two chunks of kSplitRows
// rows, and chunk sizes round up to a multiple of it.
constexpr std::size_t kSplitRows = 8;

// The tile reads B in place once per 4-row block of C, so NN/TN run it
// over k panels of at most 48K doubles of B (384 KB), small enough to stay
// cache-resident across a chunk's row blocks.
constexpr std::size_t kTileMaxB = 48 * 1024;  // doubles of B

// Large shapes split by rows into one task group on the calling task's
// pool (the process-wide executor outside any task). The caller runs the
// chunks no idle worker has taken, so a split inside a fold finishes even
// when every worker is busy. Row-wise partitioning keeps results
// bit-identical to the single-threaded path (disjoint output rows,
// unchanged per-element reduction order).
template <typename Fn>
void parallel_rows(std::size_t m, std::size_t flops, Fn&& fn) {
  if (flops < kParallelFlops || m < 2 * kSplitRows) {
    fn(std::size_t{0}, m);
    return;
  }
  ThreadPool& pool = ThreadPool::current();
  // One chunk per worker, and at least two: the caller takes a share too.
  const std::size_t chunks =
      std::min(std::max<std::size_t>(pool.size(), 2), m / kSplitRows);
  const std::size_t chunk =
      ((m + chunks - 1) / chunks + kSplitRows - 1) / kSplitRows * kSplitRows;
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

// NN and TN: the tile over k panels of kc rows of B. Every panel starts
// from C and the tile adds its products in ascending l, so storing C and
// reloading it at a panel boundary keeps each element's reduction order;
// only the last panel adds the bias.
void gemm_nn_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
                std::size_t a_i, std::size_t a_k, const double* b,
                std::size_t ldb, double* c, std::size_t ldc,
                const Epilogue& ep) {
  instrumented(m, n, k, c, ldc, ep.act, [&](std::size_t flops) {
    // At least one row, should a single row of B exceed a panel.
    const std::size_t kc =
        std::min(k, std::max<std::size_t>(kTileMaxB / n, 1));
    parallel_rows(m, flops, [&](std::size_t m0, std::size_t m1) {
      for (std::size_t l0 = 0; l0 < k; l0 += kc) {
        const std::size_t kk = std::min(kc, k - l0);
        const double* bias = l0 + kk == k ? ep.bias : nullptr;
        run_tile({0, 0, n, kk, a + l0 * a_k, a_i, a_k, b + l0 * ldb, ldb, c,
                  ldc, tile::Start::kFromC, bias},
                 m0, m1);
      }
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
