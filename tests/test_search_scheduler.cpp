// Successive-halving search scheduler (DESIGN.md §16, ctest label
// `search`): seeded property suite for the rung math plus engine-level
// behaviour — halving/exhaustive identity, partial-eval accounting for
// pruned candidates, seeded tie-breaking, cooperative rung-segment reuse
// through a ResultCache, and the DARR op sequence of each plan shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/eval_engine.h"
#include "src/core/evaluator.h"
#include "src/core/search_scheduler.h"
#include "src/data/synthetic.h"
#include "src/ml/decision_tree.h"
#include "src/ml/knn.h"
#include "src/ml/linear.h"
#include "src/ml/scalers.h"
#include "src/obs/costs.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace coda {
namespace {

// ---------------------------------------------------------------------------
// halving_survivors

TEST(HalvingSurvivors, CeilOfEntrantsOverEta) {
  EXPECT_EQ(halving_survivors(1, 2), 1u);
  EXPECT_EQ(halving_survivors(2, 2), 1u);
  EXPECT_EQ(halving_survivors(3, 2), 2u);
  EXPECT_EQ(halving_survivors(4, 2), 2u);
  EXPECT_EQ(halving_survivors(5, 2), 3u);
  EXPECT_EQ(halving_survivors(9, 3), 3u);
  EXPECT_EQ(halving_survivors(10, 3), 4u);
  EXPECT_EQ(halving_survivors(48, 4), 12u);
  EXPECT_EQ(halving_survivors(2, 7), 1u);  // never below 1
}

// ---------------------------------------------------------------------------
// tournament_ranks

TEST(TournamentRanks, SeedZeroIsIdentity) {
  const auto ranks = tournament_ranks(7, 0);
  for (std::size_t i = 0; i < ranks.size(); ++i) EXPECT_EQ(ranks[i], i);
}

TEST(TournamentRanks, SeededShuffleIsAValidPermutation) {
  for (std::uint64_t seed : {1u, 42u, 9001u}) {
    const auto ranks = tournament_ranks(16, seed);
    ASSERT_EQ(ranks.size(), 16u);
    std::set<std::size_t> seen(ranks.begin(), ranks.end());
    EXPECT_EQ(seen.size(), 16u) << "seed " << seed << " is not a permutation";
    EXPECT_EQ(*seen.rbegin(), 15u);
  }
}

TEST(TournamentRanks, SameSeedSamePermutation) {
  EXPECT_EQ(tournament_ranks(32, 77), tournament_ranks(32, 77));
  EXPECT_NE(tournament_ranks(32, 77), tournament_ranks(32, 78));
}

// ---------------------------------------------------------------------------
// HalvingPlan properties: seeded sweep over field shapes

void expect_plan_invariants(const HalvingPlan& plan, std::size_t n,
                            std::size_t folds, std::size_t eta) {
  SCOPED_TRACE("n=" + std::to_string(n) + " folds=" + std::to_string(folds) +
               " eta=" + std::to_string(eta));
  ASSERT_FALSE(plan.rungs.empty());
  // Rung 0 races the whole field starting at fold 0.
  EXPECT_EQ(plan.rungs.front().fold_begin, 0u);
  EXPECT_EQ(plan.rungs.front().entrants, n);
  // Fold ranges are contiguous and cover [0, folds) exactly.
  for (std::size_t r = 0; r + 1 < plan.rungs.size(); ++r) {
    EXPECT_EQ(plan.rungs[r].fold_end, plan.rungs[r + 1].fold_begin);
    // Every non-final rung adds exactly one fold.
    EXPECT_EQ(plan.rungs[r].folds(), 1u);
    // Promotion shrinks the field by the halving rule.
    EXPECT_EQ(plan.rungs[r + 1].entrants,
              halving_survivors(plan.rungs[r].entrants, eta));
  }
  EXPECT_EQ(plan.rungs.back().fold_end, folds);
  EXPECT_GE(plan.rungs.back().folds(), 1u);
  // total_fold_evals is the plain sum, and never worse than exhaustive.
  std::size_t sum = 0;
  for (const auto& rung : plan.rungs) sum += rung.entrants * rung.folds();
  EXPECT_EQ(plan.total_fold_evals(), sum);
  EXPECT_EQ(plan.exhaustive_fold_evals(), n * folds);
  EXPECT_LE(plan.total_fold_evals(), plan.exhaustive_fold_evals());
  if (n > 1 && folds > 1) {
    // Any real race saves work: at least one candidate skips >= 1 fold.
    EXPECT_LT(plan.total_fold_evals(), plan.exhaustive_fold_evals());
  }
}

TEST(HalvingPlan, PropertySweepAcrossFieldShapes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 9u, 17u, 24u, 36u, 48u, 100u}) {
    for (std::size_t folds : {1u, 2u, 3u, 5u, 10u}) {
      for (std::size_t eta : {2u, 3u, 4u, 7u}) {
        expect_plan_invariants(HalvingPlan::build(n, folds, eta), n, folds,
                               eta);
      }
    }
  }
}

TEST(HalvingPlan, SingleCandidateDegeneratesToOneFullRung) {
  const auto plan = HalvingPlan::build(1, 5, 2);
  ASSERT_EQ(plan.rungs.size(), 1u);
  EXPECT_EQ(plan.rungs[0].entrants, 1u);
  EXPECT_EQ(plan.rungs[0].fold_begin, 0u);
  EXPECT_EQ(plan.rungs[0].fold_end, 5u);
  EXPECT_EQ(plan.total_fold_evals(), 5u);
}

TEST(HalvingPlan, SingleFoldDegeneratesToOneRung) {
  const auto plan = HalvingPlan::build(9, 1, 2);
  ASSERT_EQ(plan.rungs.size(), 1u);
  EXPECT_EQ(plan.rungs[0].entrants, 9u);
  EXPECT_EQ(plan.total_fold_evals(), 9u);
}

TEST(HalvingPlan, KnownScheduleNineCandidatesThreeFolds) {
  // 9 on fold 0 -> 5 on fold 1 -> final rung: 3 on fold 2.
  const auto plan = HalvingPlan::build(9, 3, 2);
  ASSERT_EQ(plan.rungs.size(), 3u);
  EXPECT_EQ(plan.rungs[0].entrants, 9u);
  EXPECT_EQ(plan.rungs[1].entrants, 5u);
  EXPECT_EQ(plan.rungs[2].entrants, 3u);
  EXPECT_EQ(plan.total_fold_evals(), 9u + 5u + 3u);
  EXPECT_EQ(plan.exhaustive_fold_evals(), 27u);
}

TEST(HalvingPlan, AggressiveEtaReachesOneSurvivorEarly) {
  // eta larger than the field: a single rung-0 cut leaves one candidate,
  // which then runs all remaining folds in the final rung.
  const auto plan = HalvingPlan::build(5, 4, 8);
  ASSERT_EQ(plan.rungs.size(), 2u);
  EXPECT_EQ(plan.rungs[0].entrants, 5u);
  EXPECT_EQ(plan.rungs[0].folds(), 1u);
  EXPECT_EQ(plan.rungs[1].entrants, 1u);
  EXPECT_EQ(plan.rungs[1].fold_begin, 1u);
  EXPECT_EQ(plan.rungs[1].fold_end, 4u);
  EXPECT_EQ(plan.total_fold_evals(), 5u + 3u);
}

// ---------------------------------------------------------------------------
// rung_key

TEST(RungKey, QualifiesBaseKeyWithEtaSeedAndRung) {
  SearchOptions search;
  search.eta = 3;
  search.seed = 42;
  EXPECT_EQ(rung_key("base", search, 2), "base|shr|e3|s42|r2");
  EXPECT_EQ(rung_key("", search, 2), "");  // non-cooperative candidate
}

// ---------------------------------------------------------------------------
// Engine-level behaviour via synthetic candidates

// A candidate whose score is `base + fold/1000`: the field ranks by `base`
// on every fold, so under kRmse (lower is better) the smallest base wins
// and halving must agree with exhaustive.
EvalEngine::Candidate ranked_candidate(const std::string& spec, double base,
                                       const std::string& key = "") {
  EvalEngine::Candidate c;
  c.spec = spec;
  c.key = key;
  c.score_fold = [base](std::size_t fold, PrefixCache&) {
    return base + static_cast<double>(fold) / 1000.0;
  };
  return c;
}

std::vector<EvalEngine::Candidate> ranked_field(std::size_t n,
                                                bool keyed = false) {
  std::vector<EvalEngine::Candidate> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string spec = "cand" + std::to_string(i);
    candidates.push_back(ranked_candidate(
        spec, static_cast<double>(n - i), keyed ? "key|" + spec : ""));
  }
  return candidates;  // candN-1 has the lowest score: the kRmse winner
}

EvaluationReport run_engine(std::vector<EvalEngine::Candidate> candidates,
                            std::size_t folds, const EvalOptions& options) {
  EvalEngine engine(options);
  return engine.run(std::move(candidates), folds);
}

TEST(SearchScheduler, HalvingMatchesExhaustiveOnOrderedField) {
  const std::size_t n = 9, folds = 3;
  EvalOptions exhaustive;
  exhaustive.threads = 4;
  const auto ref = run_engine(ranked_field(n), folds, exhaustive);

  EvalOptions halving = exhaustive;
  halving.search.strategy = SearchStrategy::kHalving;
  const auto report = run_engine(ranked_field(n), folds, halving);

  EXPECT_EQ(report.best().spec, ref.best().spec);
  EXPECT_DOUBLE_EQ(report.best().mean_score, ref.best().mean_score);
  ASSERT_EQ(report.best().fold_scores.size(), folds);

  const auto plan = HalvingPlan::build(n, folds, 2);
  EXPECT_EQ(report.rungs, plan.rungs.size());
  EXPECT_EQ(report.fold_evaluations, plan.total_fold_evals());
  EXPECT_EQ(report.fold_evaluations_planned, plan.total_fold_evals());
  EXPECT_LT(report.fold_evaluations, ref.fold_evaluations);
  EXPECT_EQ(ref.fold_evaluations, n * folds);
  EXPECT_EQ(ref.fold_evaluations_planned, n * folds);
  EXPECT_EQ(ref.rungs, 1u);  // exhaustive is the one-rung plan

  // Pruned rows: count matches the plan's cuts, survivors are unpruned.
  std::size_t pruned = 0;
  for (const auto& c : report.results) {
    if (c.pruned_at_rung >= 0) ++pruned;
  }
  EXPECT_EQ(pruned, n - plan.rungs.back().entrants);
  EXPECT_EQ(report.pruned_candidates, pruned);
  for (const auto& c : ref.results) EXPECT_EQ(c.pruned_at_rung, -1);
}

TEST(SearchScheduler, PrunedCandidatesReportPartialFoldsOnly) {
  const std::size_t n = 8, folds = 4;
  EvalOptions options;
  options.threads = 2;
  options.search.strategy = SearchStrategy::kHalving;
  const auto report = run_engine(ranked_field(n), folds, options);
  const auto plan = HalvingPlan::build(n, folds, 2);
  for (const auto& c : report.results) {
    if (c.pruned_at_rung < 0) {
      EXPECT_EQ(c.fold_scores.size(), folds) << c.spec;
      continue;
    }
    // A candidate pruned at rung r ran exactly folds [0, rungs[r].fold_end):
    // partial evaluation, never a zero/NaN row.
    const auto r = static_cast<std::size_t>(c.pruned_at_rung);
    ASSERT_LT(r, plan.rungs.size());
    EXPECT_EQ(c.fold_scores.size(), plan.rungs[r].fold_end) << c.spec;
    double mean = 0.0;
    for (const double s : c.fold_scores) mean += s;
    mean /= static_cast<double>(c.fold_scores.size());
    EXPECT_DOUBLE_EQ(c.mean_score, mean) << c.spec;
  }
}

TEST(SearchScheduler, SingleCandidateSkipsTheRace) {
  EvalOptions options;
  options.threads = 2;
  options.search.strategy = SearchStrategy::kHalving;
  std::vector<EvalEngine::Candidate> one;
  one.push_back(ranked_candidate("only", 1.0));
  const auto report = run_engine(std::move(one), 5, options);
  EXPECT_EQ(report.rungs, 1u);
  EXPECT_EQ(report.pruned_candidates, 0u);
  EXPECT_EQ(report.fold_evaluations, 5u);
  EXPECT_EQ(report.best().spec, "only");
  EXPECT_EQ(report.best().fold_scores.size(), 5u);
  EXPECT_EQ(report.best().pruned_at_rung, -1);
}

TEST(SearchScheduler, EtaLargerThanFieldKeepsOneSurvivor) {
  EvalOptions options;
  options.threads = 2;
  options.search.strategy = SearchStrategy::kHalving;
  options.search.eta = 8;
  const auto report = run_engine(ranked_field(5), 4, options);
  EXPECT_EQ(report.rungs, 2u);
  EXPECT_EQ(report.pruned_candidates, 4u);
  EXPECT_EQ(report.fold_evaluations, 5u + 3u);
  EXPECT_EQ(report.best().spec, "cand4");  // lowest base survives the cut
  EXPECT_EQ(report.best().fold_scores.size(), 4u);
}

TEST(SearchScheduler, FailedCandidateRanksLastAndIsPruned) {
  EvalOptions options;
  options.threads = 2;
  options.search.strategy = SearchStrategy::kHalving;
  std::vector<EvalEngine::Candidate> candidates;
  EvalEngine::Candidate bad;
  bad.spec = "bad";
  bad.score_fold = [](std::size_t, PrefixCache&) -> double {
    throw InvalidArgument("boom");
  };
  candidates.push_back(std::move(bad));
  candidates.push_back(ranked_candidate("good0", 3.0));
  candidates.push_back(ranked_candidate("good1", 2.0));
  candidates.push_back(ranked_candidate("good2", 1.0));
  const auto report = run_engine(std::move(candidates), 3, options);
  const auto& failed = report.results[0];
  EXPECT_TRUE(failed.failed);
  EXPECT_EQ(failed.failure_message, "boom");
  // Failures sort behind every scored candidate, so rung 0 cuts them first.
  EXPECT_EQ(failed.pruned_at_rung, 0);
  EXPECT_EQ(report.best().spec, "good2");
  EXPECT_FALSE(report.best().failed);
  EXPECT_EQ(report.best().fold_scores.size(), 3u);
}

TEST(SearchScheduler, PruneDecisionsAreScheduleIndependent) {
  // All candidates tie on every fold, so ranking is decided purely by the
  // seeded tournament permutation. Identical decisions must come out of a
  // serial run and a heavily threaded run (the prune-seal rule).
  auto tied_field = [] {
    std::vector<EvalEngine::Candidate> candidates;
    for (std::size_t i = 0; i < 12; ++i) {
      candidates.push_back(
          ranked_candidate("tied" + std::to_string(i), 5.0));
    }
    return candidates;
  };
  EvalOptions serial;
  serial.threads = 1;
  serial.search.strategy = SearchStrategy::kHalving;
  serial.search.seed = 1234;
  EvalOptions threaded = serial;
  threaded.threads = 8;
  const auto a = run_engine(tied_field(), 3, serial);
  const auto b = run_engine(tied_field(), 3, threaded);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].pruned_at_rung, b.results[i].pruned_at_rung)
        << a.results[i].spec;
    EXPECT_EQ(a.results[i].fold_scores, b.results[i].fold_scores)
        << a.results[i].spec;
  }
  EXPECT_EQ(a.best().spec, b.best().spec);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
}

TEST(SearchScheduler, SeedZeroBreaksTiesByEnumerationOrder) {
  // 4 tied candidates, 2 folds, eta 2: rung 0 keeps ceil(4/2) = 2, and with
  // seed 0 the tie-break is plain enumeration order — the first two survive.
  std::vector<EvalEngine::Candidate> candidates;
  for (std::size_t i = 0; i < 4; ++i) {
    candidates.push_back(ranked_candidate("tied" + std::to_string(i), 5.0));
  }
  EvalOptions options;
  options.threads = 4;
  options.search.strategy = SearchStrategy::kHalving;
  const auto report = run_engine(std::move(candidates), 2, options);
  EXPECT_EQ(report.results[0].pruned_at_rung, -1);
  EXPECT_EQ(report.results[1].pruned_at_rung, -1);
  EXPECT_EQ(report.results[2].pruned_at_rung, 0);
  EXPECT_EQ(report.results[3].pruned_at_rung, 0);
  EXPECT_EQ(report.best().spec, "tied0");  // order-stable, like exhaustive
}

TEST(SearchScheduler, RungSegmentsServeARepeatSearchFromCache) {
  // First halving run publishes every (candidate, rung) segment plus full
  // results for final-rung survivors. A second run over the same keyed
  // field must compute nothing: survivors sweep their base keys, pruned
  // candidates adopt their rung segments.
  LocalResultCache cache;
  EvalOptions options;
  options.threads = 2;
  options.cache = &cache;
  options.search.strategy = SearchStrategy::kHalving;
  const std::size_t n = 9, folds = 3;
  const auto first = run_engine(ranked_field(n, /*keyed=*/true), folds,
                                options);
  const auto plan = HalvingPlan::build(n, folds, 2);
  EXPECT_EQ(first.fold_evaluations, plan.total_fold_evals());

  const auto second = run_engine(ranked_field(n, /*keyed=*/true), folds,
                                 options);
  EXPECT_EQ(second.fold_evaluations, 0u);
  EXPECT_EQ(second.served_from_cache, n);
  EXPECT_EQ(second.evaluated_locally, 0u);
  EXPECT_EQ(second.best().spec, first.best().spec);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(second.results[i].from_cache) << second.results[i].spec;
    EXPECT_EQ(second.results[i].fold_scores, first.results[i].fold_scores);
    EXPECT_EQ(second.results[i].pruned_at_rung,
              first.results[i].pruned_at_rung);
  }
}

TEST(SearchScheduler, FinalRungSurvivorsPublishPlainBaseKeys) {
  // A later *exhaustive* run can reuse the halving winners' full-CV
  // results: survivors republish under their plain base keys.
  LocalResultCache cache;
  EvalOptions halving;
  halving.threads = 2;
  halving.cache = &cache;
  halving.search.strategy = SearchStrategy::kHalving;
  const auto first = run_engine(ranked_field(6, /*keyed=*/true), 3, halving);
  const auto plan = HalvingPlan::build(6, 3, 2);
  const std::size_t survivors = plan.rungs.back().entrants;

  EvalOptions exhaustive;
  exhaustive.threads = 2;
  exhaustive.cache = &cache;
  const auto second = run_engine(ranked_field(6, /*keyed=*/true), 3,
                                 exhaustive);
  EXPECT_EQ(second.served_from_cache, survivors);
  EXPECT_EQ(second.evaluated_locally, 6u - survivors);
  EXPECT_EQ(second.best().spec, first.best().spec);
  EXPECT_DOUBLE_EQ(second.best().mean_score, first.best().mean_score);
}

TEST(SearchScheduler, SearchMetricsAndPrunedCostsAreRecorded) {
  obs::MetricsRegistry::instance().reset();
  obs::CandidateCosts::instance().reset();
  EvalOptions options;
  options.threads = 2;
  options.search.strategy = SearchStrategy::kHalving;
  const std::size_t n = 9, folds = 3;
  const auto report = run_engine(ranked_field(n), folds, options);
  const auto plan = HalvingPlan::build(n, folds, 2);

  const auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.find_counter("eval.search.rungs").value_or(0),
            plan.rungs.size());
  EXPECT_EQ(reg.find_counter("eval.search.pruned").value_or(0),
            report.pruned_candidates);
  EXPECT_EQ(reg.find_counter("eval.search.fold_evals_saved").value_or(0),
            plan.exhaustive_fold_evals() - plan.total_fold_evals());

  // CandidateCosts mirrors the report: pruned rows carry the rung and the
  // folds they actually ran (the --metrics-json `pruned_at_rung` column).
  const auto costs = obs::CandidateCosts::instance().snapshot();
  for (const auto& c : report.results) {
    const auto it = costs.find(c.spec);
    ASSERT_NE(it, costs.end()) << c.spec;
    EXPECT_EQ(it->second.pruned_at_rung, c.pruned_at_rung) << c.spec;
    EXPECT_EQ(it->second.folds, c.fold_scores.size()) << c.spec;
  }
}

// ---------------------------------------------------------------------------
// DARR traffic per plan shape: a recording ResultCache decorator logs every
// (op, key) the executor issues.

class RecordingCache final : public ResultCache {
 public:
  struct Op {
    std::string op;
    std::string key;
  };

  explicit RecordingCache(ResultCache* inner) : inner_(inner) {}

  std::optional<CachedResult> fetch(const std::string& key) override {
    log("fetch", key);
    return inner_->fetch(key);
  }
  std::vector<std::optional<CachedResult>> fetch_many(
      const std::vector<std::string>& keys) override {
    log("fetch_many", "");
    return inner_->fetch_many(keys);
  }
  bool claim(const std::string& key) override {
    log("claim", key);
    return inner_->claim(key);
  }
  void put(const std::string& key, const CachedResult& result) override {
    log("put", key);
    inner_->put(key, result);
  }
  void release(const std::string& key) override {
    log("release", key);
    inner_->release(key);
  }

  std::vector<Op> ops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ops_;
  }

 private:
  void log(const char* op, const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back(Op{op, key});
  }

  ResultCache* inner_;
  mutable std::mutex mutex_;
  std::vector<Op> ops_;
};

bool is_rung_key(const std::string& key) {
  return key.find("|shr|") != std::string::npos;
}

// The one-rung contract: exactly one fetch_many (first), no fetch of a key
// before its first claim, exactly one put per locally computed key, and no
// rung-qualified key anywhere.
void expect_base_key_traffic(const std::vector<RecordingCache::Op>& ops,
                             const EvaluationReport& report) {
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.front().op, "fetch_many");
  std::size_t sweeps = 0;
  std::set<std::string> claimed;
  std::map<std::string, std::size_t> puts;
  for (const auto& op : ops) {
    EXPECT_FALSE(is_rung_key(op.key)) << op.op << " " << op.key;
    if (op.op == "fetch_many") ++sweeps;
    if (op.op == "claim") claimed.insert(op.key);
    if (op.op == "fetch") {
      EXPECT_EQ(claimed.count(op.key), 1u) << "fetch before claim: " << op.key;
    }
    if (op.op == "put") ++puts[op.key];
  }
  EXPECT_EQ(sweeps, 1u);
  for (const auto& r : report.results) {
    const std::size_t expected = r.from_cache ? 0u : 1u;
    EXPECT_EQ(puts["key|" + r.spec], expected) << r.spec;
  }
}

TEST(SearchTraffic, ExhaustiveClaimsBaseKeysAndFetchesOnlyOnRetry) {
  // A peer holds cand0's claim and publishes it ~40 ms in, so cand0 is
  // denied, requeued, and served by a retry fetch.
  LocalResultCache store;
  ASSERT_TRUE(store.claim("key|cand0"));
  std::thread peer([&store] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    CachedResult r;
    r.mean_score = 9.0;
    r.fold_scores = {9.0, 9.0, 9.0};
    store.put("key|cand0", r);
  });
  RecordingCache recorder(&store);
  EvalOptions options;
  options.threads = 2;
  options.cache = &recorder;
  options.claim_wait_ms = 2000;
  const auto report = run_engine(ranked_field(6, /*keyed=*/true), 3, options);
  peer.join();
  EXPECT_TRUE(report.results[0].from_cache);
  EXPECT_EQ(report.evaluated_locally, 5u);
  const auto ops = recorder.ops();
  expect_base_key_traffic(ops, report);
  EXPECT_GE(std::count_if(ops.begin(), ops.end(),
                          [](const RecordingCache::Op& op) {
                            return op.op == "fetch";
                          }),
            1);  // the retry looked again
}

TEST(SearchTraffic, DegenerateHalvingPlansUseBaseKeys) {
  // One candidate, or one fold: the halving plan has a single rung and
  // must talk to the DARR exactly like an exhaustive search.
  for (const auto& [n, folds] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 5}, {6, 1}}) {
    SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(folds));
    LocalResultCache store;
    RecordingCache recorder(&store);
    EvalOptions options;
    options.threads = 2;
    options.cache = &recorder;
    options.search.strategy = SearchStrategy::kHalving;
    const auto report =
        run_engine(ranked_field(n, /*keyed=*/true), folds, options);
    EXPECT_EQ(report.rungs, 1u);
    EXPECT_EQ(report.evaluated_locally, n);
    expect_base_key_traffic(recorder.ops(), report);
  }
}

TEST(SearchTraffic, RacingPlanUsesRungKeysPlusOneBasePutPerSurvivor) {
  LocalResultCache store;
  RecordingCache recorder(&store);
  EvalOptions options;
  options.threads = 2;
  options.cache = &recorder;
  options.search.strategy = SearchStrategy::kHalving;
  const auto report = run_engine(ranked_field(9, /*keyed=*/true), 3, options);
  const auto plan = HalvingPlan::build(9, 3, 2);
  std::size_t units = 0;
  for (const auto& rung : plan.rungs) units += rung.entrants;

  std::set<std::string> fetched;
  std::size_t rung_puts = 0;
  std::set<std::string> base_puts;
  for (const auto& op : recorder.ops()) {
    if (op.op == "fetch") fetched.insert(op.key);
    if (op.op == "claim") {
      EXPECT_TRUE(is_rung_key(op.key)) << op.key;
      EXPECT_EQ(fetched.count(op.key), 1u) << "claim without fetch: " << op.key;
    }
    if (op.op != "put") continue;
    if (is_rung_key(op.key)) {
      ++rung_puts;
    } else {
      EXPECT_TRUE(base_puts.insert(op.key).second) << "second put: " << op.key;
    }
  }
  EXPECT_EQ(rung_puts, units);
  EXPECT_EQ(base_puts.size(), plan.rungs.back().entrants);
  for (const auto& r : report.results) {
    EXPECT_EQ(base_puts.count("key|" + r.spec), r.pruned_at_rung < 0 ? 1u : 0u)
        << r.spec;
  }
}

// ---------------------------------------------------------------------------
// GraphEvaluator-level identity on a real (Fig-3-shaped) workload

TEST(SearchScheduler, GraphSearchHalvingSelectsTheExhaustiveBest) {
  RegressionConfig cfg;
  cfg.n_samples = 150;
  cfg.n_features = 5;
  cfg.n_informative = 4;
  const Dataset data = make_regression(cfg);

  TEGraph graph;
  std::vector<std::unique_ptr<Transformer>> scalers;
  scalers.push_back(std::make_unique<StandardScaler>());
  scalers.push_back(std::make_unique<RobustScaler>());
  scalers.push_back(std::make_unique<NoOp>());
  graph.add_feature_scalers(std::move(scalers));
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<DecisionTreeRegressor>());
  models.push_back(std::make_unique<KnnRegressor>());
  graph.add_regression_models(std::move(models));

  EvalOptions exhaustive;
  exhaustive.threads = 4;
  const auto ref =
      GraphEvaluator(exhaustive).evaluate(graph, data, KFold(3));

  EvalOptions halving = exhaustive;
  halving.search.strategy = SearchStrategy::kHalving;
  const auto report =
      GraphEvaluator(halving).evaluate(graph, data, KFold(3));

  EXPECT_EQ(report.best().spec, ref.best().spec);
  EXPECT_DOUBLE_EQ(report.best().mean_score, ref.best().mean_score);
  EXPECT_EQ(report.best().fold_scores, ref.best().fold_scores);
  EXPECT_LT(report.fold_evaluations, ref.fold_evaluations);
}

}  // namespace
}  // namespace coda
