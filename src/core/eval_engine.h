// The unified evaluation engine behind GraphEvaluator and
// ts::ForecastGraphEvaluator.
//
// Three jobs, shared by every graph family:
//
//  1. Scheduling — run() validates its arguments, builds a rung plan from
//     EvalOptions::search (exhaustive = one rung covering every candidate
//     on every fold) and hands it to the single executor in
//     search_scheduler.h. Each candidate's folds become tasks of the
//     search's TaskGroup on the process-wide executor, so a slow
//     candidate's folds spread across workers (Section III: "different
//     predictive models can be run in parallel").
//  2. Shared-prefix memoization — candidates that share a fitted
//     transformer prefix (same scaler/selector chain, or the same
//     scaler+windower pair for forecast paths) fit it once per fold; the
//     outputs live in a byte-budgeted LRU (PrefixCache) for the duration of
//     one run. SystemDS and MLCask report the same reuse as the dominant
//     win for enumerated-pipeline workloads.
//  3. Cooperation — the DARR lookup/claim/store protocol (Fig 2) runs
//     through one CooperativeFetch call site. A claim-blocked unit is
//     parked on the process-wide TimerWheel instead of holding a thread
//     in a sleep/poll loop, so threads keep scoring other candidates
//     while a peer works.
//
// Metric families: eval.candidate.{local,cached,failed,deferred,folds,
// seconds}, eval.claim.{requeued,wait_seconds},
// eval.prefix_cache.{hit,miss,evicted,bytes}, eval.search.* and
// cv.fold.seconds. The engine counts no DARR lookups of its own: the
// ResultCache behind CooperativeFetch does (darr.client.{lookups,hits}).
// Traced regions: eval.run, eval.candidate and eval.fold, whose phases
// eval.fold.{prepare,fit,score} are span-free phase regions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/evaluator.h"

namespace coda {

/// Byte-budgeted LRU memo for fitted-prefix outputs, shared by every task
/// of one EvalEngine::run. Values are type-erased shared_ptrs (each graph
/// family stores its own entry type); keys embed the fold index and the
/// canonical prefix spec, so identical prefixes collide on purpose and
/// different params/folds never do. A budget of 0 disables the cache.
///
/// Entries are only inserted after the prefix fit fully succeeded — a
/// candidate failing mid-fit can never poison the memo for its siblings.
class PrefixCache {
 public:
  explicit PrefixCache(std::size_t byte_budget);

  bool enabled() const { return budget_ > 0; }
  std::size_t budget() const { return budget_; }

  /// Returns the entry for `key` (marking it most-recently used), or null.
  /// Counts a hit or miss; disabled caches return null without counting.
  std::shared_ptr<const void> lookup(const std::string& key);

  /// Typed convenience wrapper over lookup().
  template <typename T>
  std::shared_ptr<const T> get(const std::string& key) {
    return std::static_pointer_cast<const T>(lookup(key));
  }

  /// Inserts `value` accounting `bytes` against the budget, evicting
  /// least-recently-used entries to make room. Entries larger than the
  /// whole budget (and all inserts on a disabled cache) are dropped.
  void insert(const std::string& key, std::shared_ptr<const void> value,
              std::size_t bytes);

  std::size_t bytes() const;
  std::size_t entries() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  void evict_locked(std::size_t needed);

  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::size_t bytes_ = 0;
  std::list<std::string> lru_;  ///< front = most recently used
  std::map<std::string, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The engine's single call site against ResultCache: every lookup, claim,
/// store and abandon the evaluators issue goes through here, so the
/// ResultCache contract documented in evaluator.h is exercised from exactly
/// one place (and instrumented once). All methods are no-ops / misses when
/// no cache is configured.
///
/// Degradation (DESIGN.md §9): a cache that throws NetworkError (its retry
/// budget is spent — the DARR node is partitioned or down) flips this fetch
/// into degraded mode for the rest of the run: sweeps and polls report
/// misses, claims are granted locally, publishes and abandons are dropped.
/// The search then completes as a purely local evaluation — never a wrong
/// result, never a hang — and each swallowed call counts in
/// `eval.darr_degraded`. Repository-side claims we still hold expire via
/// TTL, so peers reclaim the work.
class CooperativeFetch {
 public:
  explicit CooperativeFetch(ResultCache* cache);

  bool cooperative() const { return cache_ != nullptr; }

  /// True once a NetworkError has switched the run to local-only mode.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  /// Batched initial sweep over every candidate key (one fetch_many —
  /// a single round-trip on networked caches). Returns one slot per key.
  std::vector<std::optional<CachedResult>> fetch_many(
      const std::vector<std::string>& keys);

  /// Single-key re-poll while a peer holds the claim.
  std::optional<CachedResult> fetch(const std::string& key);

  /// Claims `key`; false = a peer holds a live claim.
  bool claim(const std::string& key);

  /// Publishes a locally computed result (releases the claim).
  void put(const std::string& key, const CachedResult& result);

  /// Releases the claim without publishing (local failure).
  void release(const std::string& key);

 private:
  /// Marks the run degraded and counts the swallowed call.
  void degrade(const char* op);
  bool usable() const { return cache_ != nullptr && !degraded(); }

  ResultCache* cache_;
  std::atomic<bool> degraded_{false};
};

/// The engine. One instance is cheap, and so is each run(): it owns no
/// threads. A run submits its tasks as one TaskGroup to the process-wide
/// executor (ThreadPool::shared(), with TimerWheel::shared() for parked
/// units) and runs them on the calling thread too until the report is
/// complete.
class EvalEngine {
 public:
  explicit EvalEngine(EvalOptions options);

  /// One schedulable candidate, supplied by a graph-family evaluator.
  struct Candidate {
    /// Canonical pipeline spec (report + CachedResult explanation).
    std::string spec;
    /// Cooperative cache key; empty = no cooperation for this candidate.
    std::string key;
    /// Scores fold `fold` (0-based), using `prefixes` to reuse shared
    /// fitted-prefix outputs. Thrown exceptions mark the candidate failed
    /// without aborting the run.
    std::function<double(std::size_t fold, PrefixCache& prefixes)> score_fold;
  };

  /// Runs the search plan options().search selects over `n_folds` folds
  /// and selects the best full-CV, non-failed candidate. Throws StateError
  /// when every candidate failed.
  EvaluationReport run(std::vector<Candidate> candidates,
                       std::size_t n_folds) const;

  const EvalOptions& options() const { return options_; }

 private:
  EvalOptions options_;
};

}  // namespace coda
