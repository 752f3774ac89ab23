#include "src/core/search_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "src/obs/obs.h"
#include "src/util/error.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace coda {

namespace {

/// Re-queue interval of a claim-blocked unit while a peer computes it.
constexpr std::chrono::milliseconds kClaimPoll{5};

}  // namespace

std::size_t halving_survivors(std::size_t entrants, std::size_t eta) {
  require(eta >= 2, "halving_survivors: eta must be >= 2");
  if (entrants == 0) return 0;
  const std::size_t kept = (entrants + eta - 1) / eta;
  return kept == 0 ? 1 : kept;
}

std::vector<std::size_t> tournament_ranks(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (seed != 0) {
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
      // One SplitMix64 draw: a pure function of the seed, with no
      // dependence on library distribution internals.
      const std::uint64_t draw = mix64(state);
      state += kSplitMixGamma;
      std::swap(order[i - 1], order[draw % static_cast<std::uint64_t>(i)]);
    }
  }
  std::vector<std::size_t> rank(n);
  for (std::size_t pos = 0; pos < n; ++pos) rank[order[pos]] = pos;
  return rank;
}

HalvingPlan HalvingPlan::build(std::size_t n_candidates, std::size_t n_folds,
                               std::size_t eta) {
  require(n_candidates > 0, "HalvingPlan: no candidates");
  require(n_folds > 0, "HalvingPlan: need at least one fold");
  require(eta >= 2, "HalvingPlan: eta must be >= 2");
  HalvingPlan plan;
  plan.n_candidates = n_candidates;
  plan.n_folds = n_folds;
  plan.eta = eta;
  std::size_t fold = 0;
  std::size_t entrants = n_candidates;
  while (true) {
    if (entrants == 1 || n_folds - fold == 1) {
      // Final rung: the remaining entrants run every remaining fold, so
      // survivors end with full-CV scores (single-candidate early exit
      // lands here immediately — no racing against nobody).
      plan.rungs.push_back(RungSpec{fold, n_folds, entrants});
      break;
    }
    plan.rungs.push_back(RungSpec{fold, fold + 1, entrants});
    ++fold;
    entrants = halving_survivors(entrants, eta);
  }
  return plan;
}

HalvingPlan HalvingPlan::exhaustive(std::size_t n_candidates,
                                    std::size_t n_folds) {
  require(n_candidates > 0, "HalvingPlan: no candidates");
  require(n_folds > 0, "HalvingPlan: need at least one fold");
  HalvingPlan plan;
  plan.n_candidates = n_candidates;
  plan.n_folds = n_folds;
  plan.rungs.push_back(RungSpec{0, n_folds, n_candidates});
  return plan;
}

std::size_t HalvingPlan::total_fold_evals() const {
  std::size_t total = 0;
  for (const RungSpec& r : rungs) total += r.entrants * r.folds();
  return total;
}

std::string rung_key(const std::string& base_key, const SearchOptions& search,
                     std::size_t rung) {
  if (base_key.empty()) return {};
  return base_key + "|shr|e" + std::to_string(search.eta) + "|s" +
         std::to_string(search.seed) + "|r" + std::to_string(rung);
}

namespace detail {

namespace {

/// One execution of a rung plan. A unit is one candidate on one rung: it
/// runs the cooperative claim cycle in attempt(), then fans out one task
/// per fold; the last fold finishes the unit and the last unit of a rung
/// seals it. Every task belongs to the run's one TaskGroup on the shared
/// executor, capped at EvalOptions::threads.
class PlanRun {
 public:
  PlanRun(const EvalOptions& options,
          const std::vector<EvalEngine::Candidate>& candidates,
          const HalvingPlan& plan)
      : options_(options),
        candidates_(candidates),
        plan_(plan),
        base_keys_(plan.rungs.size() == 1),
        maximize_(higher_is_better(options.metric)),
        tie_rank_(tournament_ranks(candidates.size(), options.search.seed)),
        coop_(options.cache),
        prefixes_(options.prefix_cache_bytes),
        entrants_(candidates.size()) {
    std::iota(entrants_.begin(), entrants_.end(), std::size_t{0});
    report_.metric = options.metric;
    report_.results.resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      report_.results[i].spec = candidates[i].spec;
      cands_.push_back(std::make_unique<Cand>());
      cands_[i]->fold_scores.assign(plan.n_folds, 0.0);
    }
    report_.fold_evaluations_planned = plan.total_fold_evals();
    report_.rungs = plan.rungs.size();
  }

  EvaluationReport execute() {
    obs::Region run(obs::region_id<"eval.run">(), obs::kTraced);
    root_ctx_ = run.context();
    root_node_ = obs::Tracer::current_node();
    // The saving is a property of the plan, not the schedule — count it
    // once up front so it is identical on every client and under every
    // chaos interleaving.
    const std::size_t saved =
        plan_.exhaustive_fold_evals() - plan_.total_fold_evals();
    if (saved > 0) obs::count_scoped("eval.search.fold_evals_saved", saved);

    sweep();
    ThreadPool& pool = ThreadPool::shared();
    tokens_ = options_.threads > 0 ? options_.threads : pool.size();
    // The caller runs the group's queued tasks until the last rung seals.
    // The group's destructor waits as well, so on every exit path no task
    // of this run is queued, running or parked when execute() returns.
    TaskGroup group(pool, tokens_);
    group_ = &group;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      start_rung_locked();
    }
    group.wait();
    publish_survivors();
    report_.fold_evaluations =
        local_fold_evals_.load(std::memory_order_acquire);
    report_.pruned_candidates = pruned_total_;
    pick_best();
    report_.total_seconds = run.stop();
    return std::move(report_);
  }

 private:
  // Racing state per candidate. Non-atomic fields are guarded by `mutex_`
  // except those only touched by the candidate's own attempt chain
  // (attempts for one unit never overlap — each is scheduled by its
  // predecessor's requeue, and a candidate runs one rung at a time).
  struct Cand {
    std::vector<double> fold_scores;  ///< valid prefix [0, folds_known)
    std::size_t folds_known = 0;
    bool swept = false;         ///< full result served by the initial sweep
    bool computed_any = false;  ///< scored at least one fold locally
    int pruned_at = -1;
    double compute_seconds = 0.0;
    double claim_wait = 0.0;
    std::atomic<bool> failed{false};
    std::string failure_message;
    // Current-unit state.
    bool holds_token = false;   ///< occupies a slot of the claim window
    bool deferred = false;      ///< claim-blocked, parked on the wheel
    bool was_deferred = false;  ///< counter guard (once per candidate)
    bool deadline_set = false;
    std::chrono::steady_clock::time_point block_start{};
    std::chrono::steady_clock::time_point deadline{};
    std::atomic<std::size_t> folds_left{0};
  };

  /// The DARR key unit (i, r) claims and publishes: the plain base key in
  /// a one-rung plan, a rung-qualified key in a racing plan.
  std::string unit_key(std::size_t i, std::size_t r) const {
    return base_keys_ ? candidates_[i].key
                      : rung_key(candidates_[i].key, options_.search, r);
  }

  // Initial sweep over the plain base keys: one batched lookup answers
  // every candidate any client already finished. A swept candidate never
  // becomes a unit; in a racing plan it still ranks in every rung via its
  // full fold scores. A record without the full fold count (a foreign or
  // malformed publisher) is ignored and the candidate computed.
  void sweep() {
    if (!coop_.cooperative()) return;
    obs::Region sweep_region(obs::region_id<"eval.sweep">());
    const std::size_t n = candidates_.size();
    std::vector<std::string> keys;
    keys.reserve(n);
    for (const auto& c : candidates_) keys.push_back(c.key);
    const auto hits = coop_.fetch_many(keys);
    const double per_key = sweep_region.stop() / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!hits[i].has_value() || hits[i]->fold_scores.size() != plan_.n_folds) {
        continue;
      }
      Cand& c = *cands_[i];
      c.swept = true;
      c.fold_scores = hits[i]->fold_scores;
      c.folds_known = plan_.n_folds;
      CandidateResult& out = report_.results[i];
      out.mean_score = hits[i]->mean_score;
      out.stddev = hits[i]->stddev;
      out.fold_scores = hits[i]->fold_scores;
      out.from_cache = true;
      out.eval_seconds = per_key;
      obs::count_scoped("eval.candidate.cached");
      obs::CandidateCosts::instance().record_cached(candidates_[i].spec);
    }
  }

  // One claim-cycle attempt of unit i, as a group task.
  std::function<void()> attempt_task(std::size_t i) {
    return [this, i] {
      obs::ContextScope trace_scope(root_ctx_, root_node_);
      attempt(i);
    };
  }

  // Pops queued units while claim-window slots are free. Caller holds
  // `mutex_`.
  void dispatch_locked() {
    while (tokens_ > 0 && !unit_queue_.empty()) {
      const std::size_t i = unit_queue_.front();
      unit_queue_.pop_front();
      --tokens_;
      cands_[i]->holds_token = true;
      group_->submit(attempt_task(i));
    }
  }

  // Queues the current rung's unresolved units. Caller holds `mutex_`.
  void start_rung_locked() {
    const RungSpec& rung = plan_.rungs[rung_index_];
    outstanding_ = 0;
    unit_queue_.clear();
    for (const std::size_t i : entrants_) {
      Cand& c = *cands_[i];
      if (c.failed.load(std::memory_order_acquire) ||
          c.folds_known >= rung.fold_end) {
        continue;  // already resolved (failed earlier, swept, or cached)
      }
      c.deferred = false;
      c.deadline_set = false;
      ++outstanding_;
      unit_queue_.push_back(i);
    }
    unblocked_ = outstanding_;
    if (outstanding_ == 0) {
      seal_locked();
      return;
    }
    dispatch_locked();
  }

  // Rank-and-prune seal (DESIGN.md §16): runs exactly once per rung, when
  // its last unit resolves. Ranking is a pure function of fold scores,
  // enumeration order and the seeded tournament permutation — no schedule
  // state — so every cooperating client seals identically. Caller holds
  // `mutex_`; nothing here calls the ResultCache.
  void seal_locked() {
    obs::count_scoped("eval.search.rungs");
    const RungSpec& rung = plan_.rungs[rung_index_];
    if (rung_index_ + 1 == plan_.rungs.size()) {
      for (const std::size_t i : entrants_) finalize_locked(i);
      return;
    }
    std::vector<std::size_t> order = entrants_;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const bool fa = cands_[a]->failed.load(std::memory_order_acquire);
      const bool fb = cands_[b]->failed.load(std::memory_order_acquire);
      if (fa != fb) return !fa;  // failed candidates rank strictly last
      if (!fa) {
        const double sa = partial_mean_locked(a, rung.fold_end);
        const double sb = partial_mean_locked(b, rung.fold_end);
        if (sa != sb) return maximize_ ? sa > sb : sa < sb;
      }
      return tie_rank_[a] < tie_rank_[b];
    });
    const std::size_t keep = plan_.rungs[rung_index_ + 1].entrants;
    for (std::size_t pos = keep; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      // Every cut entrant is pruned at this rung — including failed ones
      // (ranked strictly last): the rung records where the race dropped
      // them. Swept candidates keep their full-CV row untouched.
      if (!cands_[i]->swept) {
        cands_[i]->pruned_at = static_cast<int>(rung_index_);
        obs::count_scoped("eval.search.pruned");
        obs::CandidateCosts::instance().record_pruned(
            candidates_[i].spec, static_cast<int>(rung_index_));
        ++pruned_total_;
      }
      finalize_locked(i);
    }
    // Promote in rank order: the current best candidates queue first
    // (GraphLab-style prioritized continuation).
    order.resize(keep);
    entrants_ = std::move(order);
    ++rung_index_;
    start_rung_locked();
  }

  // Copies the candidate's racing state into its report row. Caller holds
  // `mutex_`. Swept candidates were finalized at the sweep and are skipped.
  void finalize_locked(std::size_t i) {
    Cand& c = *cands_[i];
    if (c.swept) return;
    CandidateResult& out = report_.results[i];
    out.claim_wait_seconds = c.claim_wait;
    out.pruned_at_rung = c.pruned_at;
    if (c.failed.load(std::memory_order_acquire)) {
      out.failed = true;
      out.failure_message = c.failure_message;
      obs::count_scoped("eval.candidate.failed");
      return;
    }
    CachedResult summary = summarize(c, 0, c.folds_known, candidates_[i].spec);
    out.mean_score = summary.mean_score;
    out.stddev = summary.stddev;
    out.fold_scores = std::move(summary.fold_scores);
    out.eval_seconds = c.compute_seconds;
    if (c.computed_any) {
      obs::count_scoped("eval.candidate.local");
      obs::observe_scoped("eval.candidate.seconds", out.eval_seconds);
    } else if (coop_.cooperative()) {
      // Every unit's segment arrived from peers.
      out.from_cache = true;
      obs::count_scoped("eval.candidate.cached");
      obs::CandidateCosts::instance().record_cached(candidates_[i].spec);
    }
  }

  // Mean over the candidate's known fold prefix, truncated to `fold_end`.
  // Caller holds `mutex_`.
  double partial_mean_locked(std::size_t i, std::size_t fold_end) const {
    const Cand& c = *cands_[i];
    const std::size_t k = std::min(fold_end, c.folds_known);
    if (k == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t f = 0; f < k; ++f) sum += c.fold_scores[f];
    return sum / static_cast<double>(k);
  }

  // The per-unit cooperative state machine (Fig 2): look up → claim → on a
  // denied claim defer and requeue until the result lands, the claim
  // frees, or the local-compute deadline expires → compute.
  void attempt(std::size_t i) {
    Cand& c = *cands_[i];
    std::size_t r;
    bool retry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      r = rung_index_;
      retry = c.deferred;
    }
    const RungSpec& rung = plan_.rungs[r];
    // One span per scheduling attempt, parented under the run's root via
    // the ContextScope the submitting task installed. Cooperative calls
    // and fold tasks all descend from it.
    obs::Region attempt_span(obs::region_id<"eval.candidate">(),
                             obs::kTraced);
    attempt_span.tag("path", candidates_[i].spec);
    attempt_span.tag("rung", std::to_string(r));
    if (retry) attempt_span.tag("retry", "1");
    const std::string key = unit_key(i, r);
    if (coop_.cooperative() && !key.empty()) {
      // The sweep already looked up a base key, so a one-rung plan fetches
      // only on a retry (the peer whose claim deferred us may have
      // published since). Rung keys are invisible to the sweep: a racing
      // plan probes them on every attempt, adopting a segment left by the
      // deferring peer or by an earlier run.
      if (retry || !base_keys_) {
        if (auto hit = coop_.fetch(key)) {
          if (adopt(i, rung, *hit, retry)) {
            unit_done(i);
            return;
          }
        }
      }
      if (!coop_.claim(key) && defer(i)) return;
      std::lock_guard<std::mutex> lock(mutex_);
      if (c.deferred) {
        c.deferred = false;
        ++unblocked_;
        record_claim_wait_locked(i);
      }
    }
    // Fan out one task per fold of the unit, so a slow candidate's folds
    // spread over the workers. Fold tasks parent under this attempt's span
    // (which may close first — parent links are ids, not lifetimes).
    const obs::TraceContext fold_ctx = attempt_span.context();
    c.folds_left.store(rung.folds(), std::memory_order_release);
    for (std::size_t fold = rung.fold_begin; fold < rung.fold_end; ++fold) {
      group_->submit([this, i, fold, r, fold_ctx] {
        obs::ContextScope trace_scope(fold_ctx, root_node_);
        run_fold(i, fold, r);
      });
    }
  }

  // Splices a published segment into the candidate. A malformed one
  // (foreign publisher) is refused; the claim cycle then computes.
  bool adopt(std::size_t i, const RungSpec& rung, const CachedResult& hit,
             bool retry) {
    if (hit.fold_scores.size() != rung.folds()) return false;
    Cand& c = *cands_[i];
    std::lock_guard<std::mutex> lock(mutex_);
    std::copy(hit.fold_scores.begin(), hit.fold_scores.end(),
              c.fold_scores.begin() +
                  static_cast<std::ptrdiff_t>(rung.fold_begin));
    c.folds_known = rung.fold_end;
    if (retry) record_claim_wait_locked(i);
    return true;
  }

  void record_claim_wait_locked(std::size_t i) {
    Cand& c = *cands_[i];
    const double wait = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - c.block_start)
                            .count();
    c.claim_wait += wait;
    obs::observe_scoped("eval.claim.wait_seconds", wait);
    obs::CandidateCosts::instance().record_claim_wait(candidates_[i].spec,
                                                      wait);
  }

  // Claim-blocked: park the unit on the shared timer wheel and let the
  // group keep scoring other units. No thread sleeps here. Returns false
  // once the local-compute deadline has expired: the peer presumably died,
  // so the unit computes without the claim and the rung always seals.
  bool defer(std::size_t i) {
    Cand& c = *cands_[i];
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (!c.deferred) {
      c.deferred = true;
      c.block_start = now;
      --unblocked_;
      if (c.holds_token) {
        c.holds_token = false;
        ++tokens_;
        dispatch_locked();
      }
      if (!c.was_deferred) {
        c.was_deferred = true;
        obs::count_scoped("eval.candidate.deferred");
      }
    }
    if (c.deadline_set && now >= c.deadline) return false;
    if (!c.deadline_set && unblocked_ == 0) {
      // No local work left to hide the wait behind — start the deadline
      // (peer-failure safety net). With every unit of the rung blocked,
      // the seal cannot happen until somebody's result lands or this fires.
      c.deadline_set = true;
      c.deadline = now + std::chrono::milliseconds(options_.claim_wait_ms);
    }
    obs::count_scoped("eval.claim.requeued");
    group_->submit_after(kClaimPoll, attempt_task(i));
    return true;
  }

  void run_fold(std::size_t i, std::size_t fold, std::size_t r) {
    Cand& c = *cands_[i];
    // A sibling fold already failed the candidate: skip the work, just
    // balance the countdown.
    if (!c.failed.load(std::memory_order_acquire)) {
      obs::Region fold_span(obs::region_id<"eval.fold">(), obs::kTraced);
      fold_span.tag("path", candidates_[i].spec);
      fold_span.tag("fold", std::to_string(fold));
      fold_span.tag("rung", std::to_string(r));
      // Ambient attribution: PrefixCache hits/misses inside score_fold are
      // charged to this candidate's cost row.
      obs::CandidateScope cost_scope(candidates_[i].spec);
      try {
        const double sc = candidates_[i].score_fold(fold, prefixes_);
        c.fold_scores[fold] = sc;
        const double elapsed = fold_span.stop();
        obs::observe_scoped("cv.fold.seconds", elapsed);
        obs::CandidateCosts::instance().record_fold(candidates_[i].spec,
                                                    elapsed);
        local_fold_evals_.fetch_add(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(mutex_);
        c.compute_seconds += elapsed;
      } catch (const std::exception& e) {
        bool expected = false;
        if (c.failed.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
          std::lock_guard<std::mutex> lock(mutex_);
          c.failure_message = e.what();
        }
      }
    }
    if (c.folds_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_unit(i, r);
    }
  }

  // All of the unit's folds are in (or it failed): publish or release the
  // unit key before the claim-window slot returns, so waiting peers are
  // served early, then commit folds_known and resolve the unit.
  void finish_unit(std::size_t i, std::size_t r) {
    Cand& c = *cands_[i];
    const RungSpec& rung = plan_.rungs[r];
    const std::string key = unit_key(i, r);
    const bool failed = c.failed.load(std::memory_order_acquire);
    if (coop_.cooperative() && !key.empty()) {
      if (failed) {
        coop_.release(key);
      } else {
        coop_.put(key, summarize(c, rung.fold_begin, rung.fold_end,
                                 candidates_[i].spec));
      }
    }
    if (!failed) {
      std::lock_guard<std::mutex> lock(mutex_);
      c.folds_known = rung.fold_end;
      c.computed_any = true;
    }
    unit_done(i);
  }

  // A unit resolved (computed, adopted from a peer, or failed): release
  // its window slot and seal the rung when it was the last one out.
  void unit_done(std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex_);
    Cand& c = *cands_[i];
    if (!c.deferred) --unblocked_;
    c.deferred = false;
    if (c.holds_token) {
      c.holds_token = false;
      ++tokens_;
    }
    --outstanding_;
    dispatch_locked();
    if (outstanding_ == 0) seal_locked();
  }

  // A racing plan's final-rung survivors republish their full-CV result
  // under the plain base key, so exhaustive peers and future runs hit the
  // sweep (the store is idempotent for the bit-identical value every
  // client assembles). Runs after the final seal, outside the mutex.
  void publish_survivors() {
    if (base_keys_ || !coop_.cooperative()) return;
    for (const std::size_t i : entrants_) {
      const CandidateResult& out = report_.results[i];
      if (cands_[i]->swept || out.failed || candidates_[i].key.empty() ||
          out.fold_scores.size() != plan_.n_folds) {
        continue;
      }
      coop_.put(candidates_[i].key,
                CachedResult{out.mean_score, out.stddev, out.fold_scores,
                             candidates_[i].spec});
    }
  }

  // Best = best full-CV, non-failed candidate (final-rung entrants plus
  // anything served whole from the cooperative cache). Pruned candidates
  // carry partial scores and are not eligible. Order-stable: the earlier
  // candidate wins ties.
  void pick_best() {
    bool found = false;
    for (std::size_t i = 0; i < report_.results.size(); ++i) {
      const CandidateResult& res = report_.results[i];
      report_.total_claim_wait_seconds += res.claim_wait_seconds;
      if (res.failed) continue;
      if (res.from_cache) {
        ++report_.served_from_cache;
      } else {
        ++report_.evaluated_locally;
      }
      if (res.fold_scores.size() != plan_.n_folds) continue;  // pruned
      const double best = report_.results[report_.best_index].mean_score;
      if (!found ||
          (maximize_ ? res.mean_score > best : res.mean_score < best)) {
        report_.best_index = i;
        found = true;
      }
    }
    require_state(found, "EvalEngine: every candidate failed");
  }

  /// Folds [begin, end) of `c` and their mean_stddev(). Every published
  /// record and report row goes through here.
  static CachedResult summarize(const Cand& c, std::size_t begin,
                                std::size_t end, const std::string& spec) {
    CachedResult result;
    result.fold_scores.assign(
        c.fold_scores.begin() + static_cast<std::ptrdiff_t>(begin),
        c.fold_scores.begin() + static_cast<std::ptrdiff_t>(end));
    result.explanation = spec;
    std::tie(result.mean_score, result.stddev) =
        mean_stddev(result.fold_scores);
    return result;
  }

  const EvalOptions& options_;
  const std::vector<EvalEngine::Candidate>& candidates_;
  const HalvingPlan& plan_;
  const bool base_keys_;  ///< one-rung plan: units use the plain base key
  const bool maximize_;
  const std::vector<std::size_t> tie_rank_;
  // Captured for group tasks: thread-local parenting does not cross a
  // submit(), so every task re-installs the root context (and the node
  // attribution of the simulated client driving this run).
  obs::TraceContext root_ctx_;
  std::string root_node_;

  EvaluationReport report_;
  CooperativeFetch coop_;
  PrefixCache prefixes_;
  std::vector<std::unique_ptr<Cand>> cands_;
  std::atomic<std::size_t> local_fold_evals_{0};

  TaskGroup* group_ = nullptr;  ///< execute()'s group, live while it runs
  std::mutex mutex_;
  std::size_t rung_index_ = 0;
  std::vector<std::size_t> entrants_;
  std::size_t outstanding_ = 0;  ///< unresolved units in the current rung
  std::size_t unblocked_ = 0;    ///< unresolved units not claim-blocked
  std::deque<std::size_t> unit_queue_;
  // Claim window: at most EvalOptions::threads units are
  // claimed-but-unfinished at once, so a client claims work just before it
  // has the capacity to score it — claiming the whole graph up front would
  // starve peers.
  std::size_t tokens_ = 0;
  std::size_t pruned_total_ = 0;
};

}  // namespace

EvaluationReport run_plan(const EvalOptions& options,
                          const std::vector<EvalEngine::Candidate>& candidates,
                          const HalvingPlan& plan) {
  return PlanRun(options, candidates, plan).execute();
}

}  // namespace detail

}  // namespace coda
