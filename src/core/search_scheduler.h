// The search executor (DESIGN.md §8, §16): the one scheduler behind
// EvalEngine::run. Every search is a rung plan, and one executor runs it.
// Exhaustive search is the plan that prunes nothing — a single rung
// covering every candidate on every fold (HalvingPlan::exhaustive).
// Anytime successive halving (HalvingPlan::build) races candidates: rung 0
// scores all of them on fold 0, ranks them by partial CV score, prunes the
// losing fraction (1 - 1/eta) and promotes the survivors to the next fold;
// the final rung runs every remaining fold so survivors finish with
// full-CV scores. SystemDS (PAPERS.md) treats such pruned enumeration as
// one resource-aware plan over the candidates. Rungs are not barriers: a
// survivor's next-rung folds are submitted the moment its rung seals, as
// continuations in the search's TaskGroup on the process-wide executor
// (capped at EvalOptions::threads; the caller runs queued tasks while it
// waits) and, for claim-blocked units, the process-wide TimerWheel.
//
// A unit is one candidate on one rung. It runs the paper's Fig-2 protocol
// once — look up, claim, defer and requeue while a peer holds the claim
// (up to a local-compute deadline), compute, publish — with one task per
// fold. It publishes from its own completion, never under the
// executor lock.
//
// Determinism (the prune-seal rule): a rung's ranking is a pure function
// of fold scores, enumeration order and the seeded tournament tie-break,
// so every cooperating client prunes identically under any interleaving
// or chaos schedule, and a fleet splits one search with zero redundant
// fold evaluations.
//
// Keys: a one-rung plan (exhaustive, or halving with one candidate or one
// fold) claims and publishes the plain base key and fetches it only on a
// retry, because the initial fetch_many sweep already looked it up. A
// racing plan claims a rung-qualified key per unit
// ("<base>|shr|e<eta>|s<seed>|r<rung>") and fetches it before every
// claim; its final-rung survivors also publish the full-CV result under
// the plain base key when the search completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/eval_engine.h"

namespace coda {

/// One rung of a search plan: `entrants` candidates each score folds
/// [fold_begin, fold_end).
struct RungSpec {
  std::size_t fold_begin = 0;
  std::size_t fold_end = 0;
  std::size_t entrants = 0;

  std::size_t folds() const { return fold_end - fold_begin; }
};

/// Survivors of a rung with `entrants` candidates under pruning factor
/// `eta`: ceil(entrants / eta), never below 1.
std::size_t halving_survivors(std::size_t entrants, std::size_t eta);

/// Seeded tournament tie-break: returns rank[i] = position of candidate i
/// in a Fisher-Yates shuffle of the enumeration order. Seed 0 is the
/// identity permutation (plain enumeration order, matching the exhaustive
/// search's order-stable tie rule).
std::vector<std::size_t> tournament_ranks(std::size_t n, std::uint64_t seed);

/// The complete rung schedule for one search. Built identically on every
/// client before any evaluation starts — the plan depends only on the
/// candidate and fold counts, never on scores.
struct HalvingPlan {
  std::size_t n_candidates = 0;
  std::size_t n_folds = 0;
  std::size_t eta = 2;
  std::vector<RungSpec> rungs;

  /// Rung 0 races all candidates on fold 0; each later rung adds one fold
  /// for the surviving ceil(prev / eta); once a single candidate remains
  /// (or a single fold), the final rung covers every remaining fold so
  /// survivors end with full-CV scores. One candidate or one fold total
  /// degenerates to a single full rung (no racing).
  static HalvingPlan build(std::size_t n_candidates, std::size_t n_folds,
                           std::size_t eta);

  /// Exhaustive search: one rung {0, n_folds, n_candidates} that scores
  /// every candidate on every fold and prunes nothing.
  static HalvingPlan exhaustive(std::size_t n_candidates,
                                std::size_t n_folds);

  /// Fold evaluations the schedule admits: sum of entrants × folds over
  /// the rungs. The fleet-wide computed total equals this exactly when
  /// cooperation splits the units without redundancy.
  std::size_t total_fold_evals() const;

  /// What the exhaustive plan runs: n_candidates × n_folds.
  std::size_t exhaustive_fold_evals() const { return n_candidates * n_folds; }
};

/// Rung-qualified cooperative key for one (candidate, rung) unit of a
/// racing plan; empty when `base_key` is empty (non-cooperative candidate).
std::string rung_key(const std::string& base_key, const SearchOptions& search,
                     std::size_t rung);

namespace detail {

/// The executor: runs `plan` over `candidates` and selects the best
/// full-CV, non-failed candidate. EvalEngine::run builds the plan from
/// options.search.strategy and validates the arguments. Throws StateError
/// when every candidate failed.
EvaluationReport run_plan(const EvalOptions& options,
                          const std::vector<EvalEngine::Candidate>& candidates,
                          const HalvingPlan& plan);

}  // namespace detail

}  // namespace coda
