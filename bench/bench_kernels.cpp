// Kernel-layer baseline (DESIGN.md §11): the GEMM kernels vs the naive
// triple loops they replaced, at square shapes and at the shapes the
// forecaster fits and ml/linalg issue. The artifact table reports GFLOP/s
// per shape for the naive loops and for every dispatch target the host
// supports — the committed BENCH_kernels.json (stamped with the selected
// target) pins these numbers so later changes to the kernel layer have a
// diffable anchor. The
// naive reference is inlined from kernels.h into this TU, so it is measured
// exactly as the pre-kernel code was compiled (the library's default -O2,
// not the kernel layer's -O3). A second table reports ns/element of the
// elementwise math — exp, sigmoid and tanh through libm against each
// target's kernels::activate, and the dropout mask drawn the old way (one
// Rng::bernoulli per element) against kernels::dropout_mask.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/kernels.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"

using namespace coda;

namespace {

struct Shape {
  std::size_t m, n, k;
};

std::vector<double> random_buffer(std::size_t size, Rng& rng) {
  std::vector<double> out(size);
  for (double& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

// Times `fn` by repeating it until ~0.15s of wall clock has elapsed and
// returns seconds per call.
template <typename Fn>
double time_call(Fn&& fn) {
  Stopwatch total;
  std::size_t iters = 0;
  do {
    fn();
    ++iters;
  } while (total.elapsed_seconds() < 0.15);
  return total.elapsed_seconds() / static_cast<double>(iters);
}

enum class Orient { kNN, kTN, kNT };

struct Case {
  const char* use;
  Orient orient;
  Shape s;
};

// The square and tall shapes of the original table, then the shapes the
// forecaster fits issue (LSTM with H = 16 at batch 32 over 24 steps, the
// conv1d layers) and ml/linalg's normal equations, the last at the widest
// XᵀX bench_fig11 forms (several k panels of B).
const std::vector<Case> kCases = {
    {"square", Orient::kNN, {64, 64, 64}},
    {"square", Orient::kNN, {128, 128, 128}},
    {"square", Orient::kNN, {256, 256, 256}},
    {"deep k", Orient::kNN, {96, 80, 512}},
    {"tall", Orient::kNN, {512, 33, 129}},
    {"lstm recurrent H=16", Orient::kNN, {32, 64, 16}},
    {"lstm recurrent H=32", Orient::kNN, {32, 128, 32}},
    {"lstm recurrent H=64", Orient::kNN, {32, 256, 64}},
    {"lstm gate", Orient::kNN, {768, 64, 16}},
    {"lstm gate, 2 inputs", Orient::kNN, {768, 64, 2}},
    {"conv forward", Orient::kNN, {768, 16, 32}},
    {"lstm dWh", Orient::kTN, {16, 64, 736}},
    {"conv dW", Orient::kTN, {32, 16, 768}},
    {"lstm dh", Orient::kNT, {32, 16, 64}},
    {"conv dX", Orient::kNT, {768, 32, 16}},
    {"linalg XtX", Orient::kTN, {8, 8, 240}},
    {"linalg Xty", Orient::kTN, {8, 1, 240}},
    {"linalg XtX (fig11)", Orient::kTN, {193, 193, 2936}},
};

const char* orient_name(Orient o) {
  return o == Orient::kNN ? "nn" : o == Orient::kTN ? "tn" : "nt";
}

// One call of the naive reference (naive = true) or the kernel in the
// case's orientation. A is m x k (NN, NT) or k x m (TN); B is k x n
// (NN, TN) or n x k (NT).
void run_case(const Case& cs, bool naive, const double* a, const double* b,
              double* c) {
  const auto [m, n, k] = cs.s;
  switch (cs.orient) {
    case Orient::kNN:
      return naive ? kernels::reference::gemm_nn(m, n, k, a, k, b, n, c, n)
                   : kernels::gemm_nn(m, n, k, a, k, b, n, c, n);
    case Orient::kTN:
      return naive ? kernels::reference::gemm_tn(m, n, k, a, m, b, n, c, n)
                   : kernels::gemm_tn(m, n, k, a, m, b, n, c, n);
    case Orient::kNT:
      return naive ? kernels::reference::gemm_nt(m, n, k, a, k, b, k, c, n)
                   : kernels::gemm_nt(m, n, k, a, k, b, k, c, n);
  }
}

void print_gemm_table() {
  namespace kd = kernels::detail;
  const kd::Target selected = kd::active_target();
  std::vector<kd::Target> targets;
  for (const kd::Target t : kd::kTargets) {
    if (kd::supported(t)) targets.push_back(t);
  }
  std::printf("=== kernel layer: GEMM GF/s, naive reference vs each dispatch "
              "target (selected: %s) ===\n\n",
              kd::target_name(selected));
  bench::record_tag("target", kd::target_name(selected));
  std::vector<std::string> header = {"use", "op", "m x n x k", "naive"};
  std::vector<int> widths = {-20, 3, -12, 7};
  for (const kd::Target t : targets) {
    header.push_back(kd::target_name(t));
    widths.push_back(7);
  }
  header.push_back("speedup");
  widths.push_back(8);
  Rng rng(42);
  std::vector<std::vector<std::string>> rows;
  for (const Case& cs : kCases) {
    const auto [m, n, k] = cs.s;
    const auto a = random_buffer(m * k, rng);
    const auto b = random_buffer(k * n, rng);
    std::vector<double> c(m * n, 0.0);
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k);
    const std::string label = std::to_string(m) + "x" + std::to_string(n) +
                              "x" + std::to_string(k);
    const std::string op = orient_name(cs.orient);
    const double naive_s =
        time_call([&] { run_case(cs, true, a.data(), b.data(), c.data()); });
    bench::record_entry("gemm_" + op + "_naive_" + label, naive_s,
                        flops / naive_s / 1e9, "GF/s");
    std::vector<std::string> row = {cs.use, op, label,
                                    bench::fmt(flops / naive_s / 1e9, 2)};
    double selected_s = naive_s;
    for (const kd::Target t : targets) {
      kd::use_target(t);
      const double s = time_call(
          [&] { run_case(cs, false, a.data(), b.data(), c.data()); });
      row.push_back(bench::fmt(flops / s / 1e9, 2));
      const std::string name = kd::target_name(t);
      bench::record_entry("gemm_" + op + "_kernel_" + name + "_" + label, s,
                          flops / s / 1e9, "GF/s");
      if (t == selected) selected_s = s;
    }
    kd::use_target(selected);
    row.push_back(bench::fmt(naive_s / selected_s, 2) + "x");
    rows.push_back(std::move(row));
  }
  bench::print_table(header, rows, widths);
  std::printf("\n(GF/s; naive = the exact pre-kernel scalar loops, compiled "
              "at this binary's default optimization level; speedup = "
              "selected target over naive)\n\n");
}

// ns per element of one pass over n elements, from time_call.
double ns_per_element(double seconds, std::size_t n) {
  return seconds / static_cast<double>(n) * 1e9;
}

void print_elementwise_table() {
  namespace kd = kernels::detail;
  const kd::Target selected = kd::active_target();
  std::vector<kd::Target> targets;
  for (const kd::Target t : kd::kTargets) {
    if (kd::supported(t)) targets.push_back(t);
  }
  std::printf("=== kernel layer: elementwise ns/element, libm (or the old "
              "dropout draw) vs each dispatch target ===\n\n");
  std::vector<std::string> header = {"op", "reference"};
  std::vector<int> widths = {-8, 9};
  for (const kd::Target t : targets) {
    header.push_back(kd::target_name(t));
    widths.push_back(7);
  }
  header.push_back("speedup");
  widths.push_back(8);
  // One LSTM gate block's worth of inputs over the range the gates see.
  constexpr std::size_t kN = 4096;
  Rng rng(7);
  std::vector<double> x = random_buffer(kN, rng);
  for (double& v : x) v *= 8.0;
  std::vector<double> y(kN);
  constexpr double kRate = 0.2;
  struct Op {
    const char* name;
    std::function<void()> reference;
    std::function<void()> kernel;
  };
  Rng draws(11);
  std::uint64_t call = 0;
  const std::vector<Op> ops = {
      {"exp",
       [&] {
         for (std::size_t i = 0; i < kN; ++i) y[i] = std::exp(x[i]);
       },
       [&] {
         y = x;
         kd::exp(y.data(), kN);
       }},
      {"sigmoid",
       [&] {
         for (std::size_t i = 0; i < kN; ++i) {
           y[i] = 1.0 / (1.0 + std::exp(-x[i]));
         }
       },
       [&] {
         y = x;
         kernels::activate(kernels::Activation::kSigmoid, y.data(), kN);
       }},
      {"tanh",
       [&] {
         for (std::size_t i = 0; i < kN; ++i) y[i] = std::tanh(x[i]);
       },
       [&] {
         y = x;
         kernels::activate(kernels::Activation::kTanh, y.data(), kN);
       }},
      {"dropout",
       [&] {
         const double keep = 1.0 / (1.0 - kRate);
         for (std::size_t i = 0; i < kN; ++i) {
           y[i] = draws.bernoulli(kRate) ? 0.0 : keep;
         }
       },
       [&] { kernels::dropout_mask(5, call++, kRate, y.data(), kN); }},
  };
  std::vector<std::vector<std::string>> rows;
  for (const Op& op : ops) {
    const double ref_ns = ns_per_element(time_call(op.reference), kN);
    const std::string name = op.name;
    bench::record_entry("elementwise_" + name + "_reference", ref_ns * 1e-9,
                        ref_ns, "ns/elem");
    std::vector<std::string> row = {name, bench::fmt(ref_ns, 2)};
    double selected_ns = ref_ns;
    for (const kd::Target t : targets) {
      kd::use_target(t);
      const double ns = ns_per_element(time_call(op.kernel), kN);
      row.push_back(bench::fmt(ns, 2));
      bench::record_entry(
          "elementwise_" + name + "_kernel_" + kd::target_name(t), ns * 1e-9,
          ns, "ns/elem");
      if (t == selected) selected_ns = ns;
    }
    kd::use_target(selected);
    row.push_back(bench::fmt(ref_ns / selected_ns, 2) + "x");
    rows.push_back(std::move(row));
  }
  bench::print_table(header, rows, widths);
  std::printf("\n(ns per element over %zu elements; reference = libm for "
              "exp/sigmoid/tanh, one Rng::bernoulli per element for the "
              "dropout mask; the kernel columns include one copy of the "
              "input; speedup = selected target over reference)\n\n",
              kN);
}

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto a = random_buffer(n * n, rng);
  const auto b = random_buffer(n * n, rng);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    kernels::gemm_nn(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto a = random_buffer(n * n, rng);
  const auto b = random_buffer(n * n, rng);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    kernels::gemm_tn(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmTN)->Arg(128);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto a = random_buffer(n * n, rng);
  const auto b = random_buffer(n * n, rng);
  std::vector<double> c(n * n, 0.0);
  for (auto _ : state) {
    kernels::gemm_nt(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNT)->Arg(128);

void BM_FusedEpilogue(benchmark::State& state) {
  // Dense-layer shape: GEMM + bias + ReLU in one write-back.
  const std::size_t m = 64, n = 128, k = 128;
  Rng rng(4);
  const auto a = random_buffer(m * k, rng);
  const auto b = random_buffer(k * n, rng);
  const auto bias = random_buffer(n, rng);
  std::vector<double> c(m * n, 0.0);
  const kernels::Epilogue ep{bias.data(), kernels::Activation::kRelu};
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0);
    kernels::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n, ep);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_FusedEpilogue);

}  // namespace

int main(int argc, char** argv) {
  coda::bench::strip_obs_flags(&argc, argv);
  print_gemm_table();
  print_elementwise_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  coda::bench::dump_obs_if_requested();
  return 0;
}
