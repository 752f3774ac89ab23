// Tests for the unified evaluation engine: prefix-cache LRU/byte-budget
// semantics, memoization transparency (identical scores with the cache on
// or off), non-blocking claim continuations on the timer wheel, batched
// cache sweeps, the TimerWheel itself, and the shared executor's fixed
// thread set.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "src/core/eval_engine.h"
#include "src/core/evaluator.h"
#include "src/core/kernels.h"
#include "src/core/plan_compiler.h"
#include "src/darr/client.h"
#include "src/darr/cooperative.h"
#include "src/darr/sharded.h"
#include "src/data/synthetic.h"
#include "src/ml/linear.h"
#include "src/ml/pca.h"
#include "src/ml/scalers.h"
#include "src/obs/obs.h"
#include "src/ts/forecast_graph.h"
#include "src/ts/forecasters.h"
#include "src/util/timer_wheel.h"

namespace coda {
namespace {

// ---------------------------------------------------------------------------
// PrefixCache

std::shared_ptr<const void> boxed_int(int v) {
  return std::make_shared<int>(v);
}

TEST(PrefixCache, LruEvictionUnderByteBudget) {
  PrefixCache cache(100);
  cache.insert("a", boxed_int(1), 40);
  cache.insert("b", boxed_int(2), 40);
  EXPECT_EQ(cache.entries(), 2u);
  // Touch "a" so "b" is the LRU entry.
  EXPECT_NE(cache.lookup("a"), nullptr);
  cache.insert("c", boxed_int(3), 40);  // needs room: evicts "b"
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), cache.budget());
}

TEST(PrefixCache, OversizedEntryIsDroppedNotCached) {
  PrefixCache cache(64);
  cache.insert("big", boxed_int(1), 65);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.lookup("big"), nullptr);
  // The rest of the cache is untouched by the oversized insert.
  cache.insert("small", boxed_int(2), 10);
  EXPECT_NE(cache.lookup("small"), nullptr);
  EXPECT_LE(cache.bytes(), cache.budget());
}

TEST(PrefixCache, ZeroBudgetDisables) {
  PrefixCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert("k", boxed_int(1), 1);
  EXPECT_EQ(cache.lookup("k"), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);  // disabled caches do not count misses
}

TEST(PrefixCache, CountsHitsAndMisses) {
  PrefixCache cache(1024);
  EXPECT_EQ(cache.lookup("k"), nullptr);
  cache.insert("k", boxed_int(7), 8);
  auto hit = cache.get<int>("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---------------------------------------------------------------------------
// TimerWheel

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel;
  std::mutex m;
  std::vector<int> order;
  std::condition_variable cv;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(v);
    cv.notify_all();
  };
  wheel.schedule(std::chrono::milliseconds(30), [&] { push(3); });
  wheel.schedule(std::chrono::milliseconds(10), [&] { push(1); });
  wheel.schedule(std::chrono::milliseconds(20), [&] { push(2); });
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return order.size() == 3u; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level behaviour via custom candidates

EvalEngine::Candidate counting_candidate(const std::string& spec,
                                         const std::string& prefix_key,
                                         std::atomic<int>& prefix_computes) {
  EvalEngine::Candidate c;
  c.spec = spec;
  c.score_fold = [prefix_key, &prefix_computes](std::size_t fold,
                                                PrefixCache& prefixes) {
    const std::string key = "f" + std::to_string(fold) + "|" + prefix_key;
    auto shared = prefixes.get<int>(key);
    if (shared == nullptr) {
      prefix_computes.fetch_add(1);
      auto computed = std::make_shared<int>(static_cast<int>(fold));
      prefixes.insert(key, computed, 64);
      shared = computed;
    }
    return static_cast<double>(*shared);
  };
  return c;
}

TEST(EvalEngine, SharedPrefixComputedOncePerFold) {
  std::atomic<int> prefix_computes{0};
  std::vector<EvalEngine::Candidate> candidates;
  candidates.push_back(counting_candidate("a", "shared", prefix_computes));
  candidates.push_back(counting_candidate("b", "shared", prefix_computes));
  candidates.push_back(counting_candidate("c", "shared", prefix_computes));
  EvalOptions options;
  options.threads = 1;  // deterministic interleaving
  EvalEngine engine(options);
  const auto report = engine.run(std::move(candidates), 4);
  EXPECT_EQ(report.evaluated_locally, 3u);
  // One compute per fold, shared by all three candidates.
  EXPECT_EQ(prefix_computes.load(), 4);
}

TEST(EvalEngine, DisabledPrefixCacheRecomputesEverywhere) {
  std::atomic<int> prefix_computes{0};
  std::vector<EvalEngine::Candidate> candidates;
  candidates.push_back(counting_candidate("a", "shared", prefix_computes));
  candidates.push_back(counting_candidate("b", "shared", prefix_computes));
  EvalOptions options;
  options.threads = 1;
  options.prefix_cache_bytes = 0;
  EvalEngine engine(options);
  engine.run(std::move(candidates), 3);
  EXPECT_EQ(prefix_computes.load(), 6);  // 2 candidates x 3 folds
}

TEST(EvalEngine, FailingCandidateDoesNotPoisonPrefixes) {
  // The failing candidate throws BEFORE inserting its prefix entry (the
  // engine contract: insert only after a fully successful fit). Siblings
  // sharing the key must compute it themselves and succeed.
  std::atomic<int> prefix_computes{0};
  std::vector<EvalEngine::Candidate> candidates;
  EvalEngine::Candidate bad;
  bad.spec = "bad";
  bad.score_fold = [](std::size_t, PrefixCache& prefixes) -> double {
    if (prefixes.get<int>("f0|shared") == nullptr) {
      throw InvalidArgument("mid-fit failure");
    }
    return 0.0;
  };
  candidates.push_back(std::move(bad));
  candidates.push_back(counting_candidate("good", "shared", prefix_computes));
  EvalOptions options;
  options.threads = 1;
  EvalEngine engine(options);
  const auto report = engine.run(std::move(candidates), 1);
  EXPECT_TRUE(report.results[0].failed);
  EXPECT_EQ(report.results[0].failure_message, "mid-fit failure");
  EXPECT_FALSE(report.results[1].failed);
  EXPECT_EQ(prefix_computes.load(), 1);
  EXPECT_EQ(report.best().spec, "good");
}

double plain_score(std::size_t fold) { return 1.0 + static_cast<double>(fold); }

EvalEngine::Candidate keyed_candidate(const std::string& spec,
                                      const std::string& key) {
  EvalEngine::Candidate c;
  c.spec = spec;
  c.key = key;
  c.score_fold = [](std::size_t fold, PrefixCache&) {
    return plain_score(fold);
  };
  return c;
}

TEST(EvalEngine, ClaimBlockedCandidateIsRequeuedThenServed) {
  // "peer" holds the claim for key K; it stores the result ~40ms in. The
  // engine must keep scoring the other candidates, requeue the blocked one
  // on the wheel, and serve it from the cache without computing locally.
  LocalResultCache cache;
  ASSERT_TRUE(cache.claim("K"));  // we act as the peer
  std::thread peer([&cache] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    CachedResult r;
    r.mean_score = 42.0;
    r.stddev = 0.0;
    r.fold_scores = {42.0, 42.0};
    cache.put("K", r);
  });
  const std::uint64_t requeues_before =
      obs::counter("eval.claim.requeued").value();
  EvalOptions options;
  options.threads = 2;
  options.cache = &cache;
  options.claim_wait_ms = 2000;
  EvalEngine engine(options);
  std::vector<EvalEngine::Candidate> candidates;
  candidates.push_back(keyed_candidate("blocked", "K"));
  candidates.push_back(keyed_candidate("free1", "F1"));
  candidates.push_back(keyed_candidate("free2", "F2"));
  const auto report = engine.run(std::move(candidates), 2);
  peer.join();
  EXPECT_TRUE(report.results[0].from_cache);
  EXPECT_DOUBLE_EQ(report.results[0].mean_score, 42.0);
  EXPECT_GT(report.results[0].claim_wait_seconds, 0.0);
  EXPECT_EQ(report.served_from_cache, 1u);
  EXPECT_EQ(report.evaluated_locally, 2u);
  EXPECT_GT(obs::counter("eval.claim.requeued").value(), requeues_before);
}

TEST(EvalEngine, ExpiredClaimDeadlineFallsBackToLocalCompute) {
  // The peer never stores and never releases: after claim_wait_ms with no
  // other work left, the engine computes locally so the search completes.
  LocalResultCache cache;
  ASSERT_TRUE(cache.claim("K"));
  EvalOptions options;
  options.threads = 1;
  options.cache = &cache;
  options.claim_wait_ms = 50;
  EvalEngine engine(options);
  std::vector<EvalEngine::Candidate> candidates;
  candidates.push_back(keyed_candidate("blocked", "K"));
  const auto report = engine.run(std::move(candidates), 2);
  EXPECT_FALSE(report.results[0].from_cache);
  EXPECT_FALSE(report.results[0].failed);
  EXPECT_DOUBLE_EQ(report.results[0].mean_score, 1.5);
  EXPECT_GE(report.results[0].claim_wait_seconds, 0.045);
}

TEST(EvalEngine, MalformedBaseKeyRecordIsRecomputedNotServed) {
  // A foreign client stored a 1-fold record under the full-CV key K. Its
  // score beats every real one, but it is not a 2-fold result: the sweep
  // must ignore it, and K must be computed locally and lose on merit.
  LocalResultCache cache;
  CachedResult malformed;
  malformed.mean_score = 0.0;
  malformed.fold_scores = {0.0};
  cache.put("K", malformed);
  EvalOptions options;
  options.threads = 2;
  options.cache = &cache;
  EvalEngine engine(options);
  std::vector<EvalEngine::Candidate> candidates;
  candidates.push_back(keyed_candidate("malformed", "K"));  // folds 1.0, 2.0
  EvalEngine::Candidate other = keyed_candidate("other", "O");
  other.score_fold = [](std::size_t, PrefixCache&) { return 1.25; };
  candidates.push_back(std::move(other));
  const auto report = engine.run(std::move(candidates), 2);
  EXPECT_FALSE(report.results[0].from_cache);
  EXPECT_EQ(report.results[0].fold_scores.size(), 2u);
  EXPECT_DOUBLE_EQ(report.results[0].mean_score, 1.5);
  EXPECT_EQ(report.best().spec, "other");
  // The local full-CV result replaced the malformed record.
  const auto stored = cache.fetch("K");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->fold_scores.size(), 2u);
}

// ---------------------------------------------------------------------------
// Memoization transparency: identical results with the cache on and off

TEGraph grid_graph() {
  TEGraph g;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  g.add_feature_scalers(std::move(scalers));
  std::vector<StageOption> selectors;
  ParamGrid pca_grid;
  pca_grid.add("n_components",
               {ParamValue{std::int64_t{2}}, ParamValue{std::int64_t{3}}});
  selectors.push_back(make_option(std::make_unique<PCA>(), pca_grid));
  g.add_stage("select", std::move(selectors));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  g.add_regression_models(std::move(models));
  return g;
}

TEST(EvalEngine, TabularScoresBitIdenticalWithPrefixCacheOnOrOff) {
  RegressionConfig cfg;
  cfg.n_samples = 120;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  const auto d = make_regression(cfg);
  const auto g = grid_graph();
  EvalOptions off;
  off.prefix_cache_bytes = 0;
  EvalOptions on;  // default 64 MiB budget
  const auto a = GraphEvaluator(off).evaluate(g, d, KFold(4));
  const auto b = GraphEvaluator(on).evaluate(g, d, KFold(4));
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.best_index, b.best_index);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].spec, b.results[i].spec);
    ASSERT_EQ(a.results[i].fold_scores.size(), b.results[i].fold_scores.size());
    for (std::size_t f = 0; f < a.results[i].fold_scores.size(); ++f) {
      // Exact equality on purpose: memoized prefixes must reproduce the
      // uncached computation bit for bit.
      EXPECT_EQ(a.results[i].fold_scores[f], b.results[i].fold_scores[f]);
    }
    EXPECT_EQ(a.results[i].mean_score, b.results[i].mean_score);
  }
}

TEST(EvalEngine, ForecastScoresBitIdenticalWithPrefixCacheOnOrOff) {
  IndustrialSeriesConfig cfg;
  cfg.length = 260;
  cfg.n_variables = 2;
  const auto series = make_industrial_series(cfg);
  ts::ForecastSpec spec;
  spec.history = 12;
  ts::ForecastGraph g(spec);
  g.add_scaler(std::make_unique<StandardScaler>());
  g.add_scaler(std::make_unique<NoOp>());
  g.add_windower(std::make_unique<ts::CascadedWindows>(), "cascaded");
  g.add_windower(std::make_unique<ts::TsAsIs>(), "asis");
  g.add_model(std::make_unique<ts::ArModel>(), "cascaded");
  g.add_model(std::make_unique<ts::ZeroModel>(), "asis");
  const TimeSeriesSlidingSplit cv(2, 150, 40, 5);
  EvalOptions off;
  off.prefix_cache_bytes = 0;
  EvalOptions on;
  const auto a = ts::ForecastGraphEvaluator(off).evaluate(g, series, cv);
  const auto b = ts::ForecastGraphEvaluator(on).evaluate(g, series, cv);
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.best().spec, b.best().spec);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].fold_scores.size(), b.results[i].fold_scores.size());
    for (std::size_t f = 0; f < a.results[i].fold_scores.size(); ++f) {
      EXPECT_EQ(a.results[i].fold_scores[f], b.results[i].fold_scores[f]);
    }
  }
}

TEST(EvalEngine, TinyBudgetStillProducesIdenticalScores) {
  RegressionConfig cfg;
  cfg.n_samples = 80;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  const auto d = make_regression(cfg);
  const auto g = grid_graph();
  EvalOptions off;
  off.prefix_cache_bytes = 0;
  EvalOptions tiny;
  tiny.prefix_cache_bytes = 4096;  // forces constant eviction churn
  const auto a = GraphEvaluator(off).evaluate(g, d, KFold(3));
  const auto b = GraphEvaluator(tiny).evaluate(g, d, KFold(3));
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].mean_score, b.results[i].mean_score);
  }
}

// ---------------------------------------------------------------------------
// Compiled-plan memoization (DESIGN.md §14): plans live in the same
// PrefixCache as fitted prefixes, keyed by the chain's canonical specs.

TEST(PlanCache, CompiledPlanReusedAcrossFoldsAndSiblings) {
  IndustrialSeriesConfig cfg;
  cfg.length = 260;
  cfg.n_variables = 2;
  const auto series = make_industrial_series(cfg);
  ts::ForecastSpec spec;
  spec.history = 12;
  ts::ForecastGraph g(spec);
  g.add_scaler(std::make_unique<StandardScaler>());
  g.add_scaler(std::make_unique<NoOp>());
  g.add_windower(std::make_unique<ts::CascadedWindows>(), "cascaded");
  g.add_model(std::make_unique<ts::ArModel>(), "cascaded");
  g.add_model(std::make_unique<ts::ZeroModel>(), "cascaded");

  EvalOptions options;
  options.compile_plans = true;
  options.threads = 1;  // deterministic compile counts (no racing misses)
  const auto& compiled = obs::counter("eval.plan.compiled");
  const std::uint64_t compiled0 = compiled.value();
  const auto report = ts::ForecastGraphEvaluator(options).evaluate(
      g, series, TimeSeriesSlidingSplit(3, 140, 30, 5));
  ASSERT_EQ(report.results.size(), 4u);
  // 2 scalers x 1 windower = 2 unique prefixes: one compilation each, not
  // one per fold (3 folds) or per model (2 siblings).
  EXPECT_EQ(compiled.value() - compiled0, 2u);
}

TEST(PlanCache, ParamChangeCompilesADistinctPlan) {
  RegressionConfig cfg;
  cfg.n_samples = 90;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  const auto d = make_regression(cfg);

  // The same PCA node with two n_components settings: the plan key embeds
  // the canonical spec (name + params), so each setting compiles its own
  // plan — a parameter change can never reuse a stale plan.
  TEGraph g;
  std::vector<StageOption> scalers;
  scalers.push_back(make_option(std::make_unique<MinMaxScaler>()));
  g.add_stage("scale", std::move(scalers));
  std::vector<StageOption> selectors;
  ParamGrid pca_grid;
  pca_grid.add("n_components",
               {ParamValue{std::int64_t{2}}, ParamValue{std::int64_t{3}}});
  selectors.push_back(make_option(std::make_unique<PCA>(), pca_grid));
  g.add_stage("select", std::move(selectors));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  g.add_regression_models(std::move(models));

  EvalOptions options;
  options.compile_plans = true;
  options.threads = 1;
  const auto& compiled = obs::counter("eval.plan.compiled");
  const std::uint64_t compiled0 = compiled.value();
  const auto report = GraphEvaluator(options).evaluate(g, d, KFold(3));
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(compiled.value() - compiled0, 2u);
}

TEST(PlanCache, LruEvictionRecompilesWithoutChangingScores) {
  RegressionConfig cfg;
  cfg.n_samples = 80;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  const auto d = make_regression(cfg);
  const auto g = grid_graph();

  EvalOptions interpreted;
  interpreted.compile_plans = false;
  EvalOptions tiny;
  tiny.compile_plans = true;
  tiny.prefix_cache_bytes = 2048;  // plans + prefixes churn constantly
  tiny.threads = 1;
  const auto& evicted = obs::counter("eval.prefix_cache.evicted");
  const std::uint64_t evicted0 = evicted.value();
  const auto a = GraphEvaluator(interpreted).evaluate(g, d, KFold(3));
  const auto b = GraphEvaluator(tiny).evaluate(g, d, KFold(3));
  EXPECT_GT(evicted.value(), evicted0);  // the budget really did evict
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].spec, b.results[i].spec);
    for (std::size_t f = 0; f < a.results[i].fold_scores.size(); ++f) {
      EXPECT_EQ(a.results[i].fold_scores[f], b.results[i].fold_scores[f]);
    }
  }
  EXPECT_EQ(a.best().spec, b.best().spec);
}

TEST(PlanCache, PlanEntriesAccountBytesInPrefixCache) {
  Pipeline p;
  p.add_transformer(std::make_unique<StandardScaler>());
  p.set_estimator(std::make_unique<LinearRegression>());
  const auto plan = compile_tabular_plan(p);
  PrefixCache cache(1 << 20);
  cache.insert("plan|tab|standardscaler", plan, plan->bytes());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), plan->bytes());
  EXPECT_EQ(cache.get<CompiledTabularPlan>("plan|tab|standardscaler"), plan);
}

// ---------------------------------------------------------------------------
// Batched lookups

TEST(ResultCache, FetchManyDefaultLoopsOverFetch) {
  LocalResultCache cache;
  CachedResult r;
  r.mean_score = 5.0;
  cache.put("a", r);
  cache.put("c", r);
  const auto out = cache.fetch_many({"a", "b", "c"});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].has_value());
  EXPECT_FALSE(out[1].has_value());
  EXPECT_TRUE(out[2].has_value());
  EXPECT_DOUBLE_EQ(out[2]->mean_score, 5.0);
}

TEST(DarrClient, FetchManyUsesOneRoundTrip) {
  dist::SimNet net;
  darr::DarrCluster cluster(&net, {.n_shards = 1, .replication = 1});
  const auto repo_node = cluster.node(0);
  const auto client_node = net.add_node("c0");
  darr::DarrClient client(&cluster, client_node);
  CachedResult r;
  r.mean_score = 2.0;
  r.fold_scores = {2.0};
  client.put("k1", r);
  const auto sent_before = net.link(client_node, repo_node).messages;
  const auto recv_before = net.link(repo_node, client_node).messages;
  const auto out = client.fetch_many({"k1", "k2", "k3"});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].has_value());
  EXPECT_FALSE(out[1].has_value());
  EXPECT_FALSE(out[2].has_value());
  // One message pair for the whole batch, not one per key.
  EXPECT_EQ(net.link(client_node, repo_node).messages, sent_before + 1);
  EXPECT_EQ(net.link(repo_node, client_node).messages, recv_before + 1);
  // Stats still count per key, like three singles would.
  EXPECT_EQ(client.stats().lookups, 3u);
  EXPECT_EQ(client.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// The shared executor starts its threads once per process

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// A fold that runs a GEMM big enough to split by rows (64x256x256).
double split_gemm_fold() {
  constexpr std::size_t m = 64, n = 256, k = 256;
  std::vector<double> a(m * k, 0.5), b(k * n, 0.25), c(m * n, 0.0);
  kernels::gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c[0];
}

// Raises `most` to `now` if it is larger.
void record_max(std::atomic<std::size_t>& most, std::size_t now) {
  std::size_t seen = most.load();
  while (now > seen && !most.compare_exchange_weak(seen, now)) {
  }
}

// One small search: four candidates over three folds on four threads,
// one of which records the process's thread count from inside its folds.
// `gemm` adds a splitting GEMM to another candidate's folds, and `defer`
// makes a pre-claimed candidate wait out its claim on the timer wheel.
void small_search(bool gemm, bool defer, std::atomic<std::size_t>& most) {
  LocalResultCache cache;
  if (defer) {
    ASSERT_TRUE(cache.claim("K"));
  }
  EvalOptions options;
  options.threads = 4;
  options.cache = &cache;
  options.claim_wait_ms = 10;
  std::vector<EvalEngine::Candidate> candidates;
  candidates.push_back(keyed_candidate("blocked", "K"));
  EvalEngine::Candidate counting = keyed_candidate("a", "A");
  counting.score_fold = [&most](std::size_t fold, PrefixCache&) {
    record_max(most, thread_count());
    return plain_score(fold);
  };
  candidates.push_back(std::move(counting));
  candidates.push_back(keyed_candidate("b", "B"));
  EvalEngine::Candidate heavy = keyed_candidate("heavy", "H");
  if (gemm) {
    heavy.score_fold = [](std::size_t, PrefixCache&) {
      return split_gemm_fold();
    };
  }
  candidates.push_back(std::move(heavy));
  const auto report = EvalEngine(options).run(std::move(candidates), 3);
  EXPECT_EQ(report.evaluated_locally, 4u);
}

TEST(Executor, SearchesAndSplitGemmsStartNoThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  std::atomic<std::size_t> most{0};
  small_search(true, true, most);  // warm-up: the executor and wheel start
  const std::size_t threads = thread_count();
  most = 0;
  for (int i = 0; i < 100; ++i) {
    small_search(i % 10 == 0, i % 25 == 0, most);
    ASSERT_EQ(thread_count(), threads) << "after search " << i;
  }
  // Not one thread came and went while a search ran, either.
  EXPECT_EQ(most.load(), threads);
}

TEST(Executor, FleetStartsAndJoinsOnlyItsSessionThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  RegressionConfig cfg;
  cfg.n_samples = 80;
  cfg.n_features = 4;
  cfg.n_informative = 3;
  const auto d = make_regression(cfg);
  const TEGraph g = grid_graph();
  darr::FleetOptions options;
  options.n_clients = 4;  // one session thread per client
  options.evaluator_threads = 2;
  options.telemetry = false;
  std::atomic<std::size_t> most{0};
  auto run = [&] {
    return darr::run_cooperative_fleet(
        g.enumerate_candidates().size(), options,
        [&](std::size_t, ResultCache& cache) {
          EvalOptions eval;
          eval.metric = Metric::kRmse;
          eval.threads = options.evaluator_threads;
          eval.cache = &cache;
          auto report = GraphEvaluator(eval).evaluate(g, d, KFold(3));
          record_max(most, thread_count());
          return report;
        });
  };
  run();  // warm-up
  const std::size_t threads = thread_count();
  most = 0;
  const auto report = run();
  EXPECT_EQ(report.redundant_evaluations, 0u);
  EXPECT_LE(most.load(), threads + options.n_clients);
  EXPECT_EQ(thread_count(), threads);
}

// ---------------------------------------------------------------------------
// Metric families

TEST(EvalEngine, RegistersMetricFamiliesOnConstruction) {
  EvalEngine engine(EvalOptions{});
  const auto counters = obs::MetricsRegistry::instance().counter_values();
  auto has = [&counters](const std::string& name) {
    for (const auto& [n, v] : counters) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("eval.prefix_cache.hit"));
  EXPECT_TRUE(has("eval.prefix_cache.miss"));
  EXPECT_TRUE(has("eval.prefix_cache.evicted"));
  EXPECT_TRUE(has("eval.claim.requeued"));
  EXPECT_TRUE(has("eval.candidate.local"));
  EXPECT_TRUE(has("eval.candidate.cached"));
  // Lookups are counted once, by the ResultCache (darr.client.*).
  EXPECT_FALSE(has("darr.lookup.hit"));
  EXPECT_FALSE(has("darr.lookup.miss"));
}

}  // namespace
}  // namespace coda
