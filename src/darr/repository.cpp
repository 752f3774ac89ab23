#include "src/darr/repository.h"

#include <atomic>

#include "src/obs/event_log.h"
#include "src/util/error.h"

namespace coda::darr {

namespace {

// Aggregate repository families (all instances in the process).
struct GlobalCounters {
  obs::Counter& lookup_hit = obs::counter("darr.repo.lookup.hit");
  obs::Counter& lookup_miss = obs::counter("darr.repo.lookup.miss");
  obs::Counter& store = obs::counter("darr.repo.store");
  obs::Counter& claims_granted = obs::counter("darr.claim.granted");
  obs::Counter& claims_denied = obs::counter("darr.claim.denied");
  obs::Counter& claims_expired = obs::counter("darr.claim.expired");
};

GlobalCounters& global_counters() {
  static GlobalCounters counters;
  return counters;
}

}  // namespace

DarrRepository::DarrRepository() : DarrRepository(Config()) {}

DarrRepository::DarrRepository(Config config) : config_(std::move(config)) {
  require(config_.claim_ttl_ms > 0, "DarrRepository: TTL must be positive");
  require(!config_.node_name.empty(),
          "DarrRepository: node_name must be non-empty");
  auto& g = global_counters();
  auto& scope = obs::MetricScope::for_node(config_.node_name);
  family_.lookup_hit = {&g.lookup_hit, &scope.counter("darr.repo.lookup.hit")};
  family_.lookup_miss = {&g.lookup_miss,
                         &scope.counter("darr.repo.lookup.miss")};
  family_.store = {&g.store, &scope.counter("darr.repo.store")};
  family_.claims_granted = {&g.claims_granted,
                            &scope.counter("darr.claim.granted")};
  family_.claims_denied = {&g.claims_denied,
                           &scope.counter("darr.claim.denied")};
  family_.claims_expired = {&g.claims_expired,
                            &scope.counter("darr.claim.expired")};
}

std::optional<DarrRecord> DarrRepository::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.lookups.inc();
  auto it = records_.find(key);
  if (it == records_.end()) {
    family_.lookup_miss.inc();
    return std::nullopt;
  }
  counters_.hits.inc();
  family_.lookup_hit.inc();
  return it->second;
}

bool DarrRepository::try_claim(const std::string& key,
                               const std::string& client) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.count(key) != 0) {
    // Result already exists; claiming is pointless — deny so the caller
    // looks it up instead.
    counters_.claims_denied.inc();
    family_.claims_denied.inc();
    return false;
  }
  const auto now = std::chrono::steady_clock::now();
  auto it = claims_.find(key);
  if (it != claims_.end()) {
    if (it->second.client == client) {
      it->second.expires_at =
          now + std::chrono::milliseconds(config_.claim_ttl_ms);
      return true;  // idempotent re-claim
    }
    if (it->second.expires_at > now) {
      counters_.claims_denied.inc();
      family_.claims_denied.inc();
      return false;  // live foreign claim
    }
    // Owner presumed dead: steal the claim.
    counters_.claims_expired.inc();
    family_.claims_expired.inc();
    obs::event(obs::Severity::kWarn, "darr.claim.expired",
               {{"key", key},
                {"stale_owner", it->second.client},
                {"stolen_by", client}});
  }
  claims_[key] = Claim{
      client, now + std::chrono::milliseconds(config_.claim_ttl_ms)};
  counters_.claims_granted.inc();
  family_.claims_granted.inc();
  return true;
}

void DarrRepository::store(DarrRecord record, double stored_at_sim_time) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(!record.key.empty(), "DarrRepository: record without a key");
  record.stored_at = stored_at_sim_time;
  claims_.erase(record.key);
  records_[record.key] = std::move(record);
  counters_.stores.inc();
  family_.store.inc();
}

void DarrRepository::abandon(const std::string& key,
                             const std::string& client) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = claims_.find(key);
  if (it != claims_.end() && it->second.client == client) claims_.erase(it);
}

std::size_t DarrRepository::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<std::string> DarrRepository::keys_with_prefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (auto it = records_.lower_bound(prefix); it != records_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

std::size_t DarrRepository::records_by(const std::string& producer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, record] : records_) {
    if (record.producer == producer) ++n;
  }
  return n;
}

std::optional<DarrRecord> DarrRepository::fetch(const std::string& key,
                                                Wire& wire) {
  (void)wire;  // in-process: no simulated traffic
  return lookup(key);
}

bool DarrRepository::claim(const std::string& key, const std::string& client,
                           Wire& wire) {
  const bool granted = try_claim(key, client);
  wire.applied = granted;
  return granted;
}

void DarrRepository::put(DarrRecord record, Wire& wire) {
  store(std::move(record));
  wire.applied = true;
}

void DarrRepository::release(const std::string& key,
                             const std::string& client, Wire& wire) {
  abandon(key, client);
  wire.applied = true;
}

DarrRepository::Counters DarrRepository::counters() const {
  Counters out;
  out.lookups = counters_.lookups.value();
  out.hits = counters_.hits.value();
  out.stores = counters_.stores.value();
  out.claims_granted = counters_.claims_granted.value();
  out.claims_denied = counters_.claims_denied.value();
  out.claims_expired = counters_.claims_expired.value();
  return out;
}

}  // namespace coda::darr
