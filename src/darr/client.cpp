#include "src/darr/client.h"

#include <atomic>

#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace coda::darr {

namespace {

CachedResult to_cached(const DarrRecord& record) {
  CachedResult result;
  result.mean_score = record.mean_score;
  result.stddev = record.stddev;
  result.fold_scores = record.fold_scores;
  result.explanation = record.explanation;
  return result;
}

}  // namespace

DarrClient::DarrClient(RecordStore* store, std::string client_name,
                       RetryPolicy retry)
    : store_(store),
      name_(std::move(client_name)),
      retry_(retry),
      // MetricScope::for_node rejects an empty name.
      facts_{obs::MetricScope::for_node(name_)} {
  require(store != nullptr, "DarrClient: null record store");
  retry_.validate();
}

void DarrClient::count_traffic(const Wire& wire) {
  facts_.bytes_sent.inc(wire.bytes_sent);
  facts_.bytes_received.inc(wire.bytes_received);
}

void DarrClient::track_claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(held_mutex_);
  held_claims_.insert(key);
}

void DarrClient::untrack_claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(held_mutex_);
  held_claims_.erase(key);
}

std::optional<CachedResult> DarrClient::fetch(const std::string& key) {
  PROF_SCOPE("darr.client.fetch");
  obs::ScopedSpan op_span("darr.client.fetch");
  Wire wire;
  const auto record = store_->fetch(key, wire);
  facts_.lookups.inc();
  if (record) facts_.hits.inc();
  count_traffic(wire);
  if (!record) return std::nullopt;
  return to_cached(*record);
}

std::vector<std::optional<CachedResult>> DarrClient::fetch_many(
    const std::vector<std::string>& keys) {
  if (keys.empty()) return {};
  PROF_SCOPE("darr.client.fetch_many");
  obs::ScopedSpan op_span("darr.client.fetch_many");
  op_span.tag("keys", std::to_string(keys.size()));
  Wire wire;
  const auto records = store_->fetch_many(keys, wire);
  std::vector<std::optional<CachedResult>> out;
  out.reserve(records.size());
  std::size_t found = 0;
  for (const auto& record : records) {
    if (record) {
      ++found;
      out.push_back(to_cached(*record));
    } else {
      out.push_back(std::nullopt);
    }
  }
  facts_.lookups.inc(keys.size());
  facts_.hits.inc(found);
  count_traffic(wire);
  return out;
}

bool DarrClient::claim(const std::string& key) {
  PROF_SCOPE("darr.client.claim");
  obs::ScopedSpan op_span("darr.client.claim");
  Wire wire;
  bool granted = false;
  try {
    granted = store_->claim(key, name_, wire);
  } catch (...) {
    // The grant may have been applied store-side before the response leg
    // was lost: track it, or abandon_all() could never release the lease.
    if (wire.applied) track_claim(key);
    throw;
  }
  if (granted) {
    track_claim(key);
    facts_.claims_won.inc();
  } else {
    facts_.claims_lost.inc();
  }
  count_traffic(wire);
  return granted;
}

void DarrClient::put(const std::string& key, const CachedResult& result) {
  DarrRecord record;
  record.key = key;
  record.mean_score = result.mean_score;
  record.stddev = result.stddev;
  record.fold_scores = result.fold_scores;
  record.explanation = result.explanation;
  record.producer = name_;
  PROF_SCOPE("darr.client.put");
  obs::ScopedSpan op_span("darr.client.put");
  Wire wire;
  try {
    store_->put(std::move(record), wire);
  } catch (...) {
    // Storing released the claim store-side even if the response was lost.
    if (wire.applied) untrack_claim(key);
    throw;
  }
  untrack_claim(key);
  facts_.stores.inc();
  count_traffic(wire);
}

void DarrClient::release(const std::string& key) {
  PROF_SCOPE("darr.client.release");
  obs::ScopedSpan op_span("darr.client.release");
  Wire wire;
  try {
    store_->release(key, name_, wire);
  } catch (...) {
    if (wire.applied) untrack_claim(key);
    throw;
  }
  untrack_claim(key);
  count_traffic(wire);
}

void DarrClient::abandon_all() {
  static auto& abandoned = obs::counter("darr.client.claims_abandoned");
  for (std::size_t pass = 0; pass < retry_.max_attempts; ++pass) {
    std::vector<std::string> held = held_claims();
    if (held.empty()) return;
    bool all_released = true;
    for (const auto& key : held) {
      try {
        release(key);
        abandoned.inc();
      } catch (const NetworkError&) {
        // Release RPC exhausted its transfer budget. Two distinct cases:
        // the store may still have applied the release before the
        // response leg died — release() untracks the key in that case,
        // and the claim IS freed, so it must be counted exactly once
        // here (the next pass will not see it again). Otherwise the key
        // stays tracked and the next pass retries; each inner retry's
        // backoff charged the logical clock, so a transient partition or
        // crash window may have healed for that next pass.
        if (!holds_claim(key)) {
          abandoned.inc();
        } else {
          all_released = false;
        }
      }
    }
    if (all_released) return;
  }
}

std::vector<std::string> DarrClient::held_claims() const {
  std::lock_guard<std::mutex> lock(held_mutex_);
  return {held_claims_.begin(), held_claims_.end()};
}

bool DarrClient::holds_claim(const std::string& key) const {
  std::lock_guard<std::mutex> lock(held_mutex_);
  return held_claims_.count(key) != 0;
}

DarrClient::Stats DarrClient::stats() const {
  Stats out;
  out.lookups = facts_.lookups.value();
  out.hits = facts_.hits.value();
  out.claims_won = facts_.claims_won.value();
  out.claims_lost = facts_.claims_lost.value();
  out.stores = facts_.stores.value();
  out.bytes_sent = facts_.bytes_sent.value();
  out.bytes_received = facts_.bytes_received.value();
  return out;
}

}  // namespace coda::darr
