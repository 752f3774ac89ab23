// Tests for the always-on region profiler (DESIGN.md §15) and the
// executor instrumentation that feeds it: call/path accounting across
// threads, the pool.* / timerwheel.* metric families under a concurrent
// submit storm (run under -DCODA_SANITIZE=thread via `ctest -L tsan`),
// folded-export determinism, fleet hot-path reproducibility, and the
// reset contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/kernels.h"
#include "src/darr/cooperative.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/ts/forecast_graph.h"
#include "src/ts/nn_forecasters.h"
#include "src/ts/windowing.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"
#include "src/util/timer_wheel.h"

namespace coda {
namespace {

// A fixed workload of nested scopes: 3 outer calls, 2 inner calls each,
// plus one call of a sibling region. Deterministic by construction.
void fixed_workload() {
  for (int outer = 0; outer < 3; ++outer) {
    PROF_SCOPE("test.prof.outer");
    for (int inner = 0; inner < 2; ++inner) {
      PROF_SCOPE("test.prof.inner");
    }
  }
  PROF_SCOPE("test.prof.sibling");
}

std::vector<std::pair<std::string, std::uint64_t>> region_calls() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& region : obs::prof::region_table()) {
    out.emplace_back(region.name, region.calls);
  }
  return out;
}

TEST(Profiler, NestedScopesAccumulatePathsAndSelfTime) {
  obs::prof::reset();
  fixed_workload();

  bool saw_outer = false, saw_inner = false, saw_sibling = false;
  for (const auto& path : obs::prof::merged_paths()) {
    if (path.path == std::vector<std::string>{"test.prof.outer"}) {
      saw_outer = true;
      EXPECT_EQ(path.calls, 3u);
      EXPECT_GE(path.total_ns, path.self_ns);
    } else if (path.path ==
               std::vector<std::string>{"test.prof.outer",
                                        "test.prof.inner"}) {
      saw_inner = true;
      EXPECT_EQ(path.calls, 6u);
    } else if (path.path == std::vector<std::string>{"test.prof.sibling"}) {
      saw_sibling = true;
      EXPECT_EQ(path.calls, 1u);
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_sibling);

  // The folded export carries the same stacks, semicolon-joined.
  const std::string folded = obs::prof::folded();
  EXPECT_NE(folded.find("test.prof.outer;test.prof.inner "),
            std::string::npos);
  EXPECT_NE(folded.find("test.prof.sibling "), std::string::npos);
}

TEST(Profiler, FoldedExportIsDeterministicForAFixedWorkload) {
  obs::prof::reset();
  fixed_workload();
  const auto first = region_calls();

  obs::prof::reset();
  fixed_workload();
  const auto second = region_calls();

  // Region set, ordering, and call counts reproduce exactly; only the
  // recorded times vary run to run (DESIGN.md §15 determinism rules).
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// The tsan storm: many threads submit into one task group while the
// profiler records inside every task, on the workers and on the waiter.
// Counts must balance exactly — each task is counted before it is queued
// and once by the one thread that pops it, so no increment can be lost or
// doubled.
TEST(Profiler, ConcurrentSubmitStormCountsEveryTask) {
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kTasksPerSubmitter = 64;
  constexpr std::size_t kTasks = kSubmitters * kTasksPerSubmitter;

  const std::uint64_t tasks_before = obs::counter("pool.tasks").value();
  const std::uint64_t wait_before =
      obs::histogram("pool.queue_wait_seconds").count();
  const std::uint64_t run_before =
      obs::histogram("pool.task_seconds").count();
  const double depth_before = obs::gauge("pool.queue_depth").value();
  obs::prof::reset();

  {
    ThreadPool pool(3);
    TaskGroup group(pool);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        for (std::size_t i = 0; i < kTasksPerSubmitter; ++i) {
          group.submit([] {
            PROF_SCOPE("test.prof.storm.task");
            volatile std::uint64_t sink = 0;
            for (int spin = 0; spin < 500; ++spin) {
              sink = sink + static_cast<std::uint64_t>(spin);
            }
          });
        }
      });
    }
    for (auto& t : submitters) t.join();
    group.wait();

    const double live = pool.utilization();
    EXPECT_GE(live, 0.0);
    EXPECT_LE(live, 1.0);
  }  // pool drains, joins, and finalizes pool.utilization

  EXPECT_EQ(obs::counter("pool.tasks").value() - tasks_before, kTasks);
  EXPECT_EQ(obs::histogram("pool.queue_wait_seconds").count() - wait_before,
            kTasks);
  EXPECT_EQ(obs::histogram("pool.task_seconds").count() - run_before,
            kTasks);
  EXPECT_DOUBLE_EQ(obs::gauge("pool.queue_depth").value(), depth_before);

  const double final_util = obs::gauge("pool.utilization").value();
  EXPECT_GE(final_util, 0.0);
  EXPECT_LE(final_util, 1.0);

  // Every task's scope landed in the merge, across all worker threads.
  std::uint64_t storm_calls = 0;
  for (const auto& region : obs::prof::region_table()) {
    if (region.name == "test.prof.storm.task") storm_calls = region.calls;
  }
  EXPECT_EQ(storm_calls, kTasks);
}

TEST(Profiler, TimerWheelRecordsFireLagForDelayedFires) {
  constexpr std::size_t kEntries = 3;
  const std::uint64_t scheduled_before =
      obs::counter("timerwheel.scheduled").value();
  const std::uint64_t fired_before =
      obs::counter("timerwheel.fired").value();
  const std::uint64_t lag_before =
      obs::histogram("timerwheel.fire_lag_seconds").count();
  const double outstanding_before =
      obs::gauge("timerwheel.outstanding").value();

  {
    TimerWheel wheel;
    std::promise<void> all_fired;
    std::atomic<std::size_t> remaining{kEntries};
    for (std::size_t i = 0; i < kEntries; ++i) {
      wheel.schedule(std::chrono::milliseconds(1 + i), [&] {
        if (remaining.fetch_sub(1) == 1) all_fired.set_value();
      });
    }
    all_fired.get_future().wait();
  }

  EXPECT_EQ(obs::counter("timerwheel.scheduled").value() - scheduled_before,
            kEntries);
  EXPECT_EQ(obs::counter("timerwheel.fired").value() - fired_before,
            kEntries);
  // One lag sample per fire; fire time >= deadline, so every sample is
  // non-negative (the histogram rejects negatives loudly if not).
  EXPECT_EQ(
      obs::histogram("timerwheel.fire_lag_seconds").count() - lag_before,
      kEntries);
  EXPECT_DOUBLE_EQ(obs::gauge("timerwheel.outstanding").value(),
                   outstanding_before);
}

TEST(Profiler, PublishNodeWritesEqualShardAndGlobalIncrements) {
  obs::reset_all();
  {
    const obs::NodeScope node("profnode");
    fixed_workload();
  }
  obs::prof::publish_node("profnode");

  const std::uint64_t global_calls =
      obs::counter("prof.test.prof.outer.calls").value();
  const std::uint64_t shard_calls = obs::MetricScope::for_node("profnode")
                                        .counter("prof.test.prof.outer.calls")
                                        .value();
  EXPECT_EQ(global_calls, 3u);
  EXPECT_EQ(shard_calls, global_calls);

  // Publishing again with no new work is a no-op (delta-based).
  obs::prof::publish_node("profnode");
  EXPECT_EQ(obs::counter("prof.test.prof.outer.calls").value(), 3u);
}

// Serial fleet (max_parallel_clients = 1, no faults): the hot-path table
// reconstructed at the collector must reproduce back-to-back — same
// regions, same order, same call counts.
TEST(Profiler, SerialFleetHotPathTableReproduces) {
  const auto run_fleet = [] {
    obs::reset_all();
    TEGraph g;
    std::vector<std::unique_ptr<Transformer>> scalers;
    scalers.push_back(std::make_unique<StandardScaler>());
    scalers.push_back(std::make_unique<NoOp>());
    g.add_feature_scalers(std::move(scalers));
    std::vector<std::unique_ptr<Estimator>> models;
    models.push_back(std::make_unique<LinearRegression>());
    models.push_back(std::make_unique<DecisionTreeRegressor>());
    g.add_regression_models(std::move(models));

    RegressionConfig cfg;
    cfg.n_samples = 120;
    cfg.n_features = 4;
    cfg.n_informative = 4;
    const Dataset data = make_regression(cfg);

    darr::FleetOptions options;
    options.n_clients = 3;
    options.max_parallel_clients = 1;  // fully deterministic ordering
    const auto report = darr::run_cooperative_search(
        g, data, KFold(3), Metric::kRmse, options);
    EXPECT_TRUE(report.telemetry_divergence.empty())
        << report.telemetry_divergence;

    std::vector<std::pair<std::string, std::uint64_t>> table;
    for (const auto& row : report.telemetry->hot_paths(32)) {
      table.emplace_back(row.region, row.calls);
    }
    return table;
  };

  const auto first = run_fleet();
  const auto second = run_fleet();
  EXPECT_EQ(first, second);

  ASSERT_FALSE(first.empty());
  bool saw_candidate = false;
  for (const auto& [region, calls] : first) {
    if (region == "eval.candidate") saw_candidate = true;
  }
  EXPECT_TRUE(saw_candidate);
}

// Every GEMM call is one `kernel.gemm` region feeding kernel.gemm.seconds,
// so the coda_top GEMM rate divides all flops by all region seconds.
TEST(Profiler, GemmRateUsesAllFlopsOverRegionSeconds) {
  obs::reset_all();
  Matrix small(16, 16);
  Matrix big(96, 96);
  small.fill(1.0);
  big.fill(1.0);
  for (int i = 0; i < 50; ++i) (void)kernels::matmul(small, small);
  for (int i = 0; i < 3; ++i) (void)kernels::matmul(big, big);
  const std::uint64_t flops =
      3ull * 2 * 96 * 96 * 96 + 50ull * 2 * 16 * 16 * 16;
  EXPECT_EQ(obs::counter("kernel.gemm.flops").value(), flops);
  const obs::Histogram& seconds = obs::histogram("kernel.gemm.seconds");
  EXPECT_EQ(seconds.count(), 53u);
  std::uint64_t region_calls = 0;
  std::uint64_t region_ns = 0;
  for (const auto& stat : obs::prof::region_table()) {
    if (stat.name != "kernel.gemm") continue;
    region_calls = stat.calls;
    region_ns = stat.total_ns;
  }
  EXPECT_EQ(region_calls, 53u);
  ASSERT_GT(seconds.sum(), 0.0);
  EXPECT_NEAR(seconds.sum(), static_cast<double>(region_ns) * 1e-9, 1e-6);
  char expected[96];
  std::snprintf(expected, sizeof(expected), "kernel.gemm: %.2f GF/s (%llu ",
                static_cast<double>(flops) / seconds.sum() * 1e-9,
                static_cast<unsigned long long>(flops));
  const std::string report = obs::prof::report();
  EXPECT_NE(report.find(expected), std::string::npos) << report;
}

// A thread's arena returns to a free list when the thread exits, so
// threads started one after another share one arena instead of each
// leaving one behind, and the region totals they recorded are kept.
TEST(Profiler, ExitedThreadsHandBackTheirArenas) {
  obs::reset_all();
  const std::size_t before = obs::prof::arena_count();
  for (int i = 0; i < 1000; ++i) {
    std::thread([] { PROF_SCOPE("test.arena_reuse"); }).join();
  }
  EXPECT_LE(obs::prof::arena_count(), before + 1);
  std::uint64_t calls = 0;
  for (const auto& stat : obs::prof::region_table()) {
    if (stat.name == "test.arena_reuse") calls = stat.calls;
  }
  EXPECT_EQ(calls, 1000u);
}

// Per thread arena: every eval.fold.fit path with its self time (the time
// no child region covers) and every path directly below it, for the
// failure message of NeuralFitRegionsAccountForFoldFit.
std::string fit_coverage_by_thread() {
  std::string out;
  const auto threads = obs::prof::thread_paths();
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (const auto& p : threads[t]) {
      const std::size_t n = p.path.size();
      const bool fit = p.path.back() == "eval.fold.fit";
      if (!fit && (n < 2 || p.path[n - 2] != "eval.fold.fit")) continue;
      out += "thread " + std::to_string(t) + " " + join(p.path, ";") +
             ": calls " + std::to_string(p.calls) + ", total " +
             std::to_string(p.total_ns) + " ns" +
             (fit ? ", uncovered " + std::to_string(p.self_ns) + " ns" : "") +
             "\n";
    }
  }
  return out;
}

// The per-layer nn.* regions account for a neural fit: the regions below
// eval.fold.fit (nn.setup, nn.train and everything under them) cover >= 95%
// of its time, and the coda_top view ranks the layer rows without
// perfbench.
TEST(Profiler, NeuralFitRegionsAccountForFoldFit) {
  IndustrialSeriesConfig cfg;
  cfg.length = 160;
  const TimeSeries series = make_industrial_series(cfg);
  ts::ForecastSpec spec;
  spec.history = 12;
  ts::ForecastGraph graph(spec);
  graph.add_scaler(std::make_unique<StandardScaler>());
  graph.add_windower(std::make_unique<ts::CascadedWindows>(), "cascaded");
  graph.add_windower(std::make_unique<ts::FlatWindowing>(), "flat");
  const auto add = [&graph](std::unique_ptr<Estimator> model,
                            const std::string& windower) {
    model->set_param("epochs", std::int64_t{4});
    graph.add_model(std::move(model), windower);
  };
  add(std::make_unique<ts::LstmForecaster>(), "cascaded");
  add(std::make_unique<ts::CnnForecaster>(), "cascaded");
  add(std::make_unique<ts::DnnForecaster>(), "flat");
  EvalOptions options;
  options.threads = 2;
  obs::prof::reset();
  (void)ts::ForecastGraphEvaluator(options).evaluate(
      graph, series, TimeSeriesSlidingSplit(2, 100, 20, 5));

  std::uint64_t fit_ns = 0;
  std::uint64_t below_ns = 0;
  for (const auto& path : obs::prof::merged_paths()) {
    const std::size_t n = path.path.size();
    if (path.path.back() == "eval.fold.fit") fit_ns += path.total_ns;
    if (n >= 2 && path.path[n - 2] == "eval.fold.fit") {
      below_ns += path.total_ns;
    }
  }
  ASSERT_GT(fit_ns, 0u);
  EXPECT_GE(static_cast<double>(below_ns), 0.95 * static_cast<double>(fit_ns))
      << below_ns << " of " << fit_ns << " ns\n" << fit_coverage_by_thread();

  const std::string report = obs::prof::report();
  for (const char* row :
       {"nn.lstm.fwd", "nn.lstm.bwd", "nn.lstm.gates", "nn.conv1d.fwd",
        "nn.conv1d.im2col", "nn.conv1d.col2im", "nn.dense.fwd",
        "nn.dense.bwd", "nn.step", "nn.loss", "nn.optimizer",
        "nn.batch_gather"}) {
    EXPECT_NE(report.find(row), std::string::npos) << row << "\n" << report;
  }
}

TEST(Profiler, ResetLeavesProfilerEmpty) {
  fixed_workload();
  EXPECT_FALSE(obs::prof::empty());
  obs::prof::reset();
  EXPECT_TRUE(obs::prof::empty());
  EXPECT_TRUE(obs::prof::merged_paths().empty());
  EXPECT_EQ(obs::prof::folded(), "");

  // And the regions keep working after the rewind.
  fixed_workload();
  EXPECT_FALSE(obs::prof::empty());
}

}  // namespace
}  // namespace coda
