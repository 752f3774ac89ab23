#include "src/obs/costs.h"

#include "src/obs/metrics.h"

namespace coda::obs {
namespace {
thread_local std::string t_current_candidate;
}  // namespace

CandidateCosts& CandidateCosts::instance() {
  static CandidateCosts costs;
  return costs;
}

void CandidateCosts::record_fold(const std::string& path, double seconds) {
  static auto& folds_metric = counter("eval.candidate.folds");
  folds_metric.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  CandidateCost& row = table_[path];
  ++row.folds;
  row.fold_seconds += seconds;
}

void CandidateCosts::record_cached(const std::string& path) {
  // No counter of its own: every caller counts eval.candidate.cached.
  std::lock_guard<std::mutex> lock(mutex_);
  ++table_[path].cached;
}

void CandidateCosts::record_prefix(const std::string& path, bool hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  CandidateCost& row = table_[path];
  if (hit) {
    ++row.prefix_hits;
  } else {
    ++row.prefix_misses;
  }
}

void CandidateCosts::record_phase(const std::string& path, Phase phase,
                                  double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  CandidateCost& row = table_[path];
  switch (phase) {
    case Phase::kPrepare:
      row.prepare_seconds += seconds;
      break;
    case Phase::kFit:
      row.fit_seconds += seconds;
      break;
    case Phase::kScore:
      row.score_seconds += seconds;
      break;
  }
}

void CandidateCosts::record_claim_wait(const std::string& path,
                                       double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_[path].claim_wait_seconds += seconds;
}

void CandidateCosts::record_pruned(const std::string& path, int rung) {
  std::lock_guard<std::mutex> lock(mutex_);
  table_[path].pruned_at_rung = rung;
}

std::map<std::string, CandidateCost> CandidateCosts::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_;
}

void CandidateCosts::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.clear();
}

CandidateScope::CandidateScope(std::string path)
    : prev_(std::move(t_current_candidate)) {
  t_current_candidate = std::move(path);
}

CandidateScope::~CandidateScope() {
  t_current_candidate = std::move(prev_);
}

const std::string& current_candidate() { return t_current_candidate; }

void prefix_event(bool hit) {
  if (t_current_candidate.empty()) return;
  CandidateCosts::instance().record_prefix(t_current_candidate, hit);
}

void charge_phase(Phase phase, double seconds) {
  if (t_current_candidate.empty()) return;
  CandidateCosts::instance().record_phase(t_current_candidate, phase,
                                          seconds);
}

}  // namespace coda::obs
