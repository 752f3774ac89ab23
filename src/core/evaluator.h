// Graph evaluation (Section IV-B): every candidate pipeline in a
// Transformer-Estimator Graph is scored with cross-validation and the best
// path is selected. Candidates run in parallel on a thread pool (Section
// III: "different predictive models can be run in parallel"), and an
// optional ResultCache (implemented by the DARR client) lets multiple
// clients share scores and avoid redundant computations.
//
// Both this evaluator and ts::ForecastGraphEvaluator delegate scheduling,
// shared-prefix memoization and the cooperative claim protocol to the
// unified EvalEngine (src/core/eval_engine.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/cross_validation.h"
#include "src/core/metrics.h"
#include "src/core/te_graph.h"
#include "src/data/dataset.h"

namespace coda {

/// A shared (cacheable) evaluation result.
struct CachedResult {
  double mean_score = 0.0;
  double stddev = 0.0;
  std::vector<double> fold_scores;
  std::string explanation;  ///< how the result was achieved (pipeline spec)
};

/// Cache/claim interface the evaluation engine uses to cooperate with other
/// clients (Section III, Fig 2). Implemented by darr::DarrClient (one
/// client node's connection to a DARR cluster — one repository node or a
/// sharded tier) and by the process-local LocalResultCache.
///
/// This is THE claim/abandon contract (the engine's CooperativeFetch is
/// the single call site, so implementations only need to honour exactly
/// this sequence):
///
///  1. fetch(key) / fetch_many(keys) — read-only; returns a result once
///     ANY client has published one. Never blocks work: a miss simply
///     means the caller may try to claim.
///  2. claim(key) — `true` grants this client the right (and duty) to
///     compute the key and finish with exactly one put() or release().
///     `false` means a peer holds a live claim: the caller must NOT compute
///     but re-poll later (the engine re-queues the candidate on a timer
///     instead of blocking a worker). Implementations may also return
///     `true` when a result is already stored — "go look it up" — callers
///     tolerate recomputation in that unlikely race.
///  3. put(key, result) — publishes the result and releases this client's
///     claim. After a put, fetches hit forever.
///  4. release(key) — drops this client's claim WITHOUT publishing (local
///     failure); peers may then claim and compute. Releasing after a
///     failed computation is mandatory, otherwise peers wait out the claim
///     TTL before retrying.
///
/// Claims are leases, not locks: distributed implementations expire them
/// (DarrRepository's claim TTL) so a crashed claimant never wedges a key.
class ResultCache {
 public:
  virtual ~ResultCache() = default;

  /// Returns the stored result for `key`, if any client has computed it.
  virtual std::optional<CachedResult> fetch(const std::string& key) = 0;

  /// Batch fetch: element i answers keys[i]. The default implementation
  /// loops over fetch(); networked caches override it to answer the
  /// evaluator's initial sweep in one round-trip instead of N.
  virtual std::vector<std::optional<CachedResult>> fetch_many(
      const std::vector<std::string>& keys);

  /// Attempts to claim `key` for local computation. Returns false when
  /// another client holds a live claim (they are computing it right now).
  virtual bool claim(const std::string& key) = 0;

  /// Publishes a computed result (and releases this client's claim).
  virtual void put(const std::string& key, const CachedResult& result) = 0;

  /// Releases a claim without publishing (local failure); lets others
  /// retry.
  virtual void release(const std::string& key) = 0;
};

/// Trivial in-process ResultCache (single map, no sharing semantics beyond
/// the current process). Useful for tests and single-client speedups.
class LocalResultCache final : public ResultCache {
 public:
  std::optional<CachedResult> fetch(const std::string& key) override;
  bool claim(const std::string& key) override;
  void put(const std::string& key, const CachedResult& result) override;
  void release(const std::string& key) override;

 private:
  std::mutex mutex_;
  std::map<std::string, CachedResult> results_;
  std::set<std::string> claims_;
};

/// Per-candidate outcome in an evaluation report.
struct CandidateResult {
  std::string spec;
  double mean_score = 0.0;
  double stddev = 0.0;
  std::vector<double> fold_scores;
  /// Sum of the fold seconds this client computed for the candidate (the
  /// cost table's fold_seconds); the sweep's per-key share of its lookup
  /// when served whole by the initial sweep; 0 when every fold came from
  /// peers. Claim waiting is in claim_wait_seconds, never here. A timing,
  /// never an exact field.
  double eval_seconds = 0.0;
  /// Time a peer's claim deferred this candidate before its result arrived
  /// (or the engine computed it locally). The candidate does not occupy a
  /// worker thread during this time — it sits on the engine's timer wheel.
  double claim_wait_seconds = 0.0;
  bool from_cache = false;
  bool failed = false;          ///< candidate threw during fit/predict
  std::string failure_message;
  /// Successive-halving only: the rung at which this candidate was pruned
  /// (-1 = never pruned — it reached the final rung, was served whole from
  /// the cooperative cache, or the search was exhaustive). Pruned
  /// candidates carry the fold scores they actually ran (a prefix of the
  /// fold set) and a mean/stddev over exactly those folds. A failed
  /// entrant ranks strictly last and is cut like any other, so it too
  /// records the rung where the race dropped it.
  int pruned_at_rung = -1;
};

/// Result of evaluating a whole graph.
struct EvaluationReport {
  std::vector<CandidateResult> results;
  std::size_t best_index = 0;
  Metric metric = Metric::kRmse;
  std::size_t evaluated_locally = 0;
  std::size_t served_from_cache = 0;
  double total_seconds = 0.0;
  double total_claim_wait_seconds = 0.0;  ///< summed over all candidates
  /// Fold evaluations this client computed locally (cache-served folds and
  /// pruned-away folds excluded).
  std::size_t fold_evaluations = 0;
  /// Fold evaluations the search plan admits fleet-wide: candidates × folds
  /// for exhaustive search, the rung schedule's total for halving. The gap
  /// to candidates × folds is the halving saving.
  std::size_t fold_evaluations_planned = 0;
  /// Candidates cut before the final rung (always 0 for exhaustive).
  std::size_t pruned_candidates = 0;
  /// Rungs in the executed plan: 1 for exhaustive (one rung covering
  /// every candidate on every fold).
  std::size_t rungs = 0;

  const CandidateResult& best() const;
};

/// Candidate-racing strategy for a graph search (DESIGN.md §16).
enum class SearchStrategy {
  /// Score every candidate on every fold. Bit-deterministic reference.
  kExhaustive,
  /// Anytime successive halving: race all candidates on one fold, prune
  /// the losing fraction, promote survivors to the next fold, recurse; the
  /// final rung runs the remaining folds so survivors end with full-CV
  /// scores. Same best pipeline as exhaustive whenever the winner's
  /// partial scores keep it inside every rung's surviving fraction.
  kHalving,
};

/// Knobs for the successive-halving scheduler (ignored under kExhaustive).
struct SearchOptions {
  SearchStrategy strategy = SearchStrategy::kExhaustive;
  /// Pruning fraction: each rung keeps ceil(entrants / eta). Must be >= 2.
  std::size_t eta = 2;
  /// Seeds the tournament tie-break permutation. Candidates with equal
  /// partial scores are ranked by this seeded shuffle of their enumeration
  /// order (seed 0 = plain enumeration order), so prune decisions are a
  /// pure function of (scores, ordering, seed) — schedule-independent and
  /// identical on every cooperating client.
  std::uint64_t seed = 0;
};

/// Options shared by every evaluator that delegates to the EvalEngine
/// (GraphEvaluator and ts::ForecastGraphEvaluator).
struct EvalOptions {
  Metric metric = Metric::kRmse;
  /// The most tasks of one search that run at once on the process-wide
  /// executor (the search's caller included), and the size of its claim
  /// window. 0 = the executor's size (hardware concurrency).
  std::size_t threads = 0;
  ResultCache* cache = nullptr;   ///< optional cooperation hook
  int claim_wait_ms = 2000;       ///< max wait before computing locally
  /// Byte budget of the engine's shared-prefix memo (fitted transformer
  /// prefixes / windowed views reused across candidates within one run).
  /// 0 disables memoization.
  std::size_t prefix_cache_bytes = std::size_t{64} << 20;
  /// Compile root→leaf paths into fused execution plans (DESIGN.md §14)
  /// instead of interpreting them stage by stage. Bit-identical scores
  /// either way; off reverts to the interpreted executor (the differential
  /// harness runs both).
  bool compile_plans = true;
  /// Candidate-racing strategy. Exhaustive remains the default and the
  /// bit-deterministic reference; kHalving prunes provably-losing
  /// candidates after partial CV (src/core/search_scheduler.h).
  SearchOptions search;
};

/// Scores one pipeline with cross-validation (mean/stddev across folds).
CachedResult cross_validate(const Pipeline& pipeline, const Dataset& data,
                            const CrossValidator& cv, Metric metric);

/// Evaluates every candidate of a graph and selects the best path.
class GraphEvaluator {
 public:
  explicit GraphEvaluator(EvalOptions options = {});

  /// Evaluates all candidates of `graph` on `data` under `cv`.
  EvaluationReport evaluate(const TEGraph& graph, const Dataset& data,
                            const CrossValidator& cv) const;

  /// The best candidate of `report` (an evaluate() of `graph` on
  /// `data`), re-fitted on the full dataset; no candidate is re-scored.
  static Pipeline refit_best(const TEGraph& graph,
                             const EvaluationReport& report,
                             const Dataset& data);

  /// The cache key for one candidate: dataset fingerprint + pipeline spec +
  /// CV spec + metric — identical inputs yield identical keys on every
  /// client, which is what makes the sharing sound.
  static std::string cache_key(const Dataset& data,
                               const std::string& candidate_spec,
                               const CrossValidator& cv, Metric metric);

 private:
  EvalOptions options_;
};

}  // namespace coda
