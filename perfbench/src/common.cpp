// Shared pieces: the metric catalogue, seed derivation, the output check and
// the GEMM rate probe.
#include <cstring>
#include <vector>

#include "src/core/kernels.h"
#include "src/util/stopwatch.h"
#include "workload.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams stay uncorrelated.
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string check_outcome(const SearchOutcome& outcome, const Answer& ref) {
  if (!outcome.error.empty()) return "search threw: " + outcome.error;
  if (outcome.answers.empty()) return "search returned no answer";
  for (std::size_t i = 0; i < outcome.answers.size(); ++i) {
    const Answer& a = outcome.answers[i];
    if (a.spec != ref.spec) {
      return "client " + std::to_string(i) + " elected " + a.spec +
             ", reference " + ref.spec;
    }
    if (!same_bits(a.fold_scores, ref.fold_scores)) {
      return "client " + std::to_string(i) +
             ": winner's fold scores differ from the reference";
    }
  }
  if (outcome.redundant_evaluations > 0) {
    return std::to_string(outcome.redundant_evaluations) +
           " redundant evaluations";
  }
  return "";
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"cold_search_s", "s"},
      {"search_s", "s"},          {"search_s_tail", "s"},
      {"fold_evals_per_s", "1/s"}, {"cpu_s_per_search", "s"},
      {"peak_rss_mb", "MB"},      {"error_rate", "ratio"},
      {"client_s", "s"},          {"client_s_tail", "s"},
      {"wire_bytes_per_search", "bytes"}};
  return specs;
}

namespace {

struct GemmShape {
  const char* name;
  char op;  ///< 'n' = gemm_nn, 't' = gemm_tn, 'x' = gemm_nt
  std::size_t m, n, k;
};

// The shapes the forecast_fit neural fits emit (batch 32, history 24,
// 2 variables, LSTM hidden 16, CNN/WaveNet filters 16, DNN hidden 32), plus
// 256^3 as the peak reference.
const GemmShape kShapes[] = {
    {"lstm_gate", 'n', 768, 64, 16},          // N*T x H . H x 4H
    {"lstm_recurrent", 'n', 32, 64, 16},      // one timestep
    {"lstm_weight_grad", 't', 16, 64, 768},   // dW += X^T . dZ
    {"dense", 'n', 32, 32, 48},               // flat window -> hidden
    {"dense_input_grad", 'x', 32, 48, 32},    // dX = G . W^T
    {"conv_im2col", 'n', 768, 16, 32},        // kernel 2 x 16 channels
    {"peak_256", 'n', 256, 256, 256},
};

/// GF/s of one shape: the median of three timed blocks, each at least
/// 50 ms of back-to-back calls. Only calls timed here enter the rate.
double gemm_rate(const GemmShape& s) {
  std::vector<double> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.5 - 0.001 * (i % 997);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.25 - 0.002 * (i % 499);
  const auto call = [&] {
    switch (s.op) {
      case 't':  // A stored k x m
        coda::kernels::gemm_tn(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                               c.data(), s.n);
        break;
      case 'x':  // B stored n x k
        coda::kernels::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                               c.data(), s.n);
        break;
      default:
        coda::kernels::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                               c.data(), s.n);
    }
  };
  call();  // warm caches and the kernel layer's lazy pool
  const double flops = 2.0 * static_cast<double>(s.m * s.n * s.k);
  std::vector<double> rates;
  for (int block = 0; block < 3; ++block) {
    std::fill(c.begin(), c.end(), 0.0);
    std::size_t calls = 0;
    coda::Stopwatch timer;
    do {
      for (int i = 0; i < 8; ++i) call();
      calls += 8;
    } while (timer.elapsed_seconds() < 0.05);
    rates.push_back(flops * static_cast<double>(calls) /
                    timer.elapsed_seconds() / 1e9);
  }
  return median(rates);
}

}  // namespace

void probe_gemm_rates(Report& report) {
  double peak = 0.0;
  double fastest_shape = 0.0;
  for (const GemmShape& s : kShapes) {
    const double rate = gemm_rate(s);
    char note[96];
    std::snprintf(note, sizeof(note), "%s m=%zu n=%zu k=%zu, timed here",
                  s.op == 't' ? "gemm_tn" : s.op == 'x' ? "gemm_nt" : "gemm_nn",
                  s.m, s.n, s.k);
    report.add(std::string("kernels.gemm.gflops.") + s.name, rate, "GF/s",
               note);
    if (std::strcmp(s.name, "peak_256") == 0) {
      peak = rate;
    } else {
      fastest_shape = std::max(fastest_shape, rate);
    }
  }
  report.add_ratio("kernels.gemm.max_over_peak",
                   Ratio{fastest_shape, peak, "GF/s fastest fit shape",
                         "GF/s 256^3 peak"});
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"engine.makespan_excess_s", "s"},
      {"engine.pool.utilization", "ratio"},
      {"engine.pool.queue_wait_s", "s"},
      {"engine.prefix_cache.hit_ratio", "ratio"},
      {"engine.cpu_over_task", "ratio"},
      {"search.fold_evals", "count"},
      {"search.fold_evals_planned", "count"},
      {"search.pruned", "count"},
      {"ts.prepare_s.p50", "s"},
      {"ts.prepare_s.sum", "s"},
      {"ts.window_bytes", "bytes"},
      {"plan.compiled", "count"},
      {"plan.fallback", "count"},
      {"nn.fit_s.lstm_simple", "s"},
      {"nn.fit_s.lstm_deep", "s"},
      {"nn.fit_s.cnn_simple", "s"},
      {"nn.fit_s.cnn_deep", "s"},
      {"nn.fit_s.wavenet", "s"},
      {"nn.fit_s.seriesnet", "s"},
      {"nn.fit_s.dnn", "s"},
      {"nn.replica_fit_s.lstm_simple", "s"},
      {"nn.replica_fit_s.lstm_deep", "s"},
      {"nn.replica_fit_s.cnn_simple", "s"},
      {"nn.replica_fit_s.cnn_deep", "s"},
      {"nn.replica_fit_s.wavenet", "s"},
      {"nn.replica_fit_s.seriesnet", "s"},
      {"nn.replica_fit_s.dnn", "s"},
      {"nn.lstm.fwd_s", "s"},
      {"nn.lstm.bwd_s", "s"},
      {"nn.conv1d.fwd_s", "s"},
      {"nn.conv1d.bwd_s", "s"},
      {"nn.dense.fwd_s", "s"},
      {"nn.dense.bwd_s", "s"},
      {"nn.dropout.fwd_s", "s"},
      {"nn.dropout.bwd_s", "s"},
      {"nn.other.fwd_s", "s"},
      {"nn.other.bwd_s", "s"},
      {"nn.optimizer_s", "s"},
      {"nn.loss_s", "s"},
      {"nn.replicas_matched", "count"},
      {"nn.replica_train_s", "s"},
      {"nn.accounted_share", "ratio"},
      {"kernels.gemm.calls_per_search", "count"},
      {"kernels.gemm.flops_per_search", "count"},
      {"kernels.gemm.gflops.lstm_gate", "GF/s"},
      {"kernels.gemm.gflops.lstm_recurrent", "GF/s"},
      {"kernels.gemm.gflops.lstm_weight_grad", "GF/s"},
      {"kernels.gemm.gflops.dense", "GF/s"},
      {"kernels.gemm.gflops.dense_input_grad", "GF/s"},
      {"kernels.gemm.gflops.conv_im2col", "GF/s"},
      {"kernels.gemm.gflops.peak_256", "GF/s"},
      {"kernels.gemm.max_over_peak", "ratio"},
      {"ml.fit_s.random_forest", "s"},
      {"ml.fit_s.decision_tree", "s"},
      {"ml.fit_s.knn", "s"},
      {"ml.fit_s.linear", "s"},
      {"darr.fetch_many_s.calls", "count"},
      {"darr.fetch_many_s.p50", "s"},
      {"darr.fetch_many_s.tail", "s"},
      {"darr.fetch_s.calls", "count"},
      {"darr.fetch_s.p50", "s"},
      {"darr.fetch_s.tail", "s"},
      {"darr.claim_s.calls", "count"},
      {"darr.claim_s.p50", "s"},
      {"darr.claim_s.tail", "s"},
      {"darr.put_s.calls", "count"},
      {"darr.put_s.p50", "s"},
      {"darr.put_s.tail", "s"},
      {"darr.claim.denied_ratio", "ratio"},
      {"darr.polls_per_grant", "ratio"},
      {"darr.claim_wait_s.p50", "s"},
      {"darr.claim_wait_s.tail", "s"},
      {"darr.redundant_evals", "count"},
      {"darr.redundancy_avoided", "count"},
      {"dist.messages", "count"},
      {"dist.bytes_on_wire", "bytes"},
      {"dist.sync_bytes", "bytes"},
      {"client_s", "s"},
      {"client_s_tail", "s"},
      {"obs.trace_overhead_s", "s"},
      {"replay.total_s", "s"},
      {"replay.accounted_share", "ratio"},
  };
  return specs;
}

}  // namespace perfbench
