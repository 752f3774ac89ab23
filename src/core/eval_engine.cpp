#include "src/core/eval_engine.h"

#include "src/core/search_scheduler.h"

#include <atomic>
#include <utility>

#include "src/obs/obs.h"

namespace coda {

// ---------------------------------------------------------------------------
// PrefixCache

PrefixCache::PrefixCache(std::size_t byte_budget) : budget_(byte_budget) {}

std::shared_ptr<const void> PrefixCache::lookup(const std::string& key) {
  if (!enabled()) return nullptr;
  // One region around the whole lookup (hit and miss paths alike): the
  // profiler's determinism contract forbids regions inside miss-gated
  // branches, whose interleaving is racy under a parallel pool.
  PROF_SCOPE("eval.prefix.lookup");
  static auto& hit = obs::counter("eval.prefix_cache.hit");
  static auto& miss = obs::counter("eval.prefix_cache.miss");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    miss.inc();
    obs::prefix_event(/*hit=*/false);  // charged to the ambient candidate
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // move to front (MRU)
  ++hits_;
  hit.inc();
  obs::prefix_event(/*hit=*/true);
  return it->second.value;
}

void PrefixCache::insert(const std::string& key,
                         std::shared_ptr<const void> value, std::size_t bytes) {
  if (!enabled() || bytes > budget_) return;
  static auto& bytes_gauge = obs::gauge("eval.prefix_cache.bytes");
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(key) != 0) return;  // a sibling task won the race
  evict_locked(bytes);
  lru_.push_front(key);
  entries_[key] = Entry{std::move(value), bytes, lru_.begin()};
  bytes_ += bytes;
  bytes_gauge.set(static_cast<double>(bytes_));
}

void PrefixCache::evict_locked(std::size_t needed) {
  static auto& evicted = obs::counter("eval.prefix_cache.evicted");
  while (bytes_ + needed > budget_ && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
    evicted.inc();
  }
}

std::size_t PrefixCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t PrefixCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t PrefixCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PrefixCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t PrefixCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

// ---------------------------------------------------------------------------
// CooperativeFetch

CooperativeFetch::CooperativeFetch(ResultCache* cache) : cache_(cache) {}

void CooperativeFetch::degrade(const char* op) {
  static auto& darr_degraded = obs::counter("eval.darr_degraded");
  const bool first = !degraded_.exchange(true, std::memory_order_acq_rel);
  darr_degraded.inc();
  obs::counter(std::string("eval.darr_degraded.") + op).inc();
  obs::event(obs::Severity::kError, "eval.darr_degraded", {{"op", op}});
  if (first) {
    // Sticky local-only degradation is the most consequential silent state
    // change in the system — offer the flight-recorder tail when asked.
    obs::flight_dump_if_env(
        std::string("CooperativeFetch degraded to local-only (op: ") + op +
        ")");
  }
}

std::vector<std::optional<CachedResult>> CooperativeFetch::fetch_many(
    const std::vector<std::string>& keys) {
  if (!usable()) {
    return std::vector<std::optional<CachedResult>>(keys.size());
  }
  try {
    return cache_->fetch_many(keys);
  } catch (const NetworkError&) {
    degrade("fetch_many");
    return std::vector<std::optional<CachedResult>>(keys.size());
  }
}

std::optional<CachedResult> CooperativeFetch::fetch(const std::string& key) {
  if (!usable()) return std::nullopt;
  try {
    return cache_->fetch(key);
  } catch (const NetworkError&) {
    degrade("fetch");
    return std::nullopt;
  }
}

bool CooperativeFetch::claim(const std::string& key) {
  if (!usable()) return true;
  try {
    return cache_->claim(key);
  } catch (const NetworkError&) {
    // Claim unreachable -> claim it "locally": computing without the global
    // claim risks duplicated work across the partition, never wrong results.
    degrade("claim");
    return true;
  }
}

void CooperativeFetch::put(const std::string& key,
                           const CachedResult& result) {
  if (!usable()) return;
  try {
    cache_->put(key, result);
  } catch (const NetworkError&) {
    degrade("put");
  }
}

void CooperativeFetch::release(const std::string& key) {
  if (!usable()) return;
  try {
    cache_->release(key);
  } catch (const NetworkError&) {
    degrade("release");
  }
}

// ---------------------------------------------------------------------------
// EvalEngine

EvalEngine::EvalEngine(EvalOptions options) : options_(std::move(options)) {
  // Register every family the engine can emit, so exported snapshots (and
  // the --metrics-json smoke checks) list them even for runs that never
  // increment one — e.g. eval.candidate.cached without a cache,
  // prefix_cache.* when memoization is disabled.
  obs::counter("eval.candidate.local");
  obs::counter("eval.candidate.cached");
  obs::counter("eval.candidate.failed");
  obs::counter("eval.candidate.deferred");
  obs::counter("eval.prefix_cache.hit");
  obs::counter("eval.prefix_cache.miss");
  obs::counter("eval.prefix_cache.evicted");
  obs::counter("eval.claim.requeued");
  obs::counter("eval.plan.compiled");
  obs::counter("eval.plan.fused_stages");
  obs::counter("eval.plan.fallback");
  obs::counter("eval.darr_degraded");
  obs::counter("eval.search.rungs");
  obs::counter("eval.search.pruned");
  obs::counter("eval.search.fold_evals_saved");
  obs::counter("eval.candidate.folds");
  obs::counter("obs.trace.recorded");
  obs::counter("obs.trace.dropped");
  obs::counter("prof.scopes");
  obs::counter("pool.tasks");
  obs::counter("timerwheel.scheduled");
  obs::counter("timerwheel.fired");
  obs::gauge("eval.prefix_cache.bytes");
  obs::gauge("pool.queue_depth");
  obs::gauge("pool.utilization");
  obs::gauge("timerwheel.outstanding");
  obs::histogram("eval.candidate.seconds");
  obs::histogram("eval.claim.wait_seconds");
  obs::histogram("cv.fold.seconds");
  obs::histogram("pool.queue_wait_seconds");
  obs::histogram("pool.task_seconds");
  obs::histogram("timerwheel.fire_lag_seconds");
}

EvaluationReport EvalEngine::run(std::vector<Candidate> candidates,
                                 std::size_t n_folds) const {
  require(!candidates.empty(), "EvalEngine: no candidates");
  require(n_folds > 0, "EvalEngine: need at least one fold");
  const HalvingPlan plan =
      options_.search.strategy == SearchStrategy::kHalving
          ? HalvingPlan::build(candidates.size(), n_folds, options_.search.eta)
          : HalvingPlan::exhaustive(candidates.size(), n_folds);
  return detail::run_plan(options_, candidates, plan);
}

}  // namespace coda
