// Per-candidate cost attribution (observability layer): the evaluation
// engine reports, per root→leaf pipeline path, how many folds ran, how
// much compute time they took, how the prefix cache behaved, and whether
// the candidate was served from the cooperative result cache. The rollup
// lands in snapshot_json() under "candidates" so bench --metrics-json
// output carries a per-pipeline cost table.
//
// Attribution is ambient: fold workers install a CandidateScope naming
// the pipeline path, and lower layers (PrefixCache) call prefix_event()
// without knowing which candidate is running. Fold phases are timed by a
// phase obs::Region (profiler.h), which charges its one elapsed reading
// here through charge_phase() — the cost row has no clock of its own.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/obs/profiler.h"

namespace coda::obs {

/// Aggregated cost of one candidate pipeline (keyed by its spec string).
struct CandidateCost {
  std::uint64_t folds = 0;         ///< fold evaluations executed
  double fold_seconds = 0.0;       ///< steady-clock compute time summed
  std::uint64_t prefix_hits = 0;   ///< prefix-cache hits while attributed
  std::uint64_t prefix_misses = 0;
  std::uint64_t cached = 0;  ///< times served from the cooperative cache
  // Phase breakdown (ISSUE 9): where a candidate's wall time went —
  // transform preparation, model fitting, scoring, and waiting on a
  // concurrent peer's claim. prepare+fit+score ≈ fold_seconds (each fold
  // reports its phases and its total independently).
  double prepare_seconds = 0.0;     ///< data/transform preparation
  double fit_seconds = 0.0;         ///< model fitting
  double score_seconds = 0.0;       ///< predict + metric scoring
  double claim_wait_seconds = 0.0;  ///< waiting on another client's claim
  /// Successive-halving search (ISSUE 10): rung at which the candidate was
  /// pruned; -1 = never pruned (reached the final rung, or the search was
  /// exhaustive). A pruned row still reports the folds it actually ran in
  /// `folds`/`fold_seconds` — partial evaluation, never a zero/NaN row.
  std::int64_t pruned_at_rung = -1;
};

/// Process-wide candidate cost table.
class CandidateCosts {
 public:
  static CandidateCosts& instance();

  void record_fold(const std::string& path, double seconds);
  void record_cached(const std::string& path);
  void record_prefix(const std::string& path, bool hit);
  void record_phase(const std::string& path, Phase phase, double seconds);
  void record_claim_wait(const std::string& path, double seconds);
  /// Marks `path` pruned at `rung` by the halving scheduler.
  void record_pruned(const std::string& path, int rung);

  /// Copy of the table, keyed (and therefore sorted) by path.
  std::map<std::string, CandidateCost> snapshot() const;

  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, CandidateCost> table_;
};

/// RAII ambient attribution: prefix_event() calls on this thread while the
/// scope is live are charged to `path`.
class CandidateScope {
 public:
  explicit CandidateScope(std::string path);
  ~CandidateScope();

  CandidateScope(const CandidateScope&) = delete;
  CandidateScope& operator=(const CandidateScope&) = delete;

 private:
  std::string prev_;
};

/// The calling thread's ambient candidate path ("" = unattributed).
const std::string& current_candidate();

/// Charges a prefix-cache hit/miss to the ambient candidate (no-op when
/// unattributed).
void prefix_event(bool hit);

/// Charges `seconds` of `phase` to the ambient candidate's cost row (no-op
/// when unattributed). A phase Region calls it on close; score paths open
/// one around each whole lookup-or-compute block (DESIGN.md §15).
void charge_phase(Phase phase, double seconds);

}  // namespace coda::obs
