#include "src/darr/repository.h"

#include "src/obs/event_log.h"
#include "src/util/error.h"

namespace coda::darr {

DarrRepository::DarrRepository() : DarrRepository(Config()) {}

DarrRepository::DarrRepository(Config config)
    : config_(std::move(config)),
      // MetricScope::for_node rejects an empty node name.
      facts_{obs::MetricScope::for_node(config_.node_name)} {
  require(config_.claim_ttl_ms > 0, "DarrRepository: TTL must be positive");
}

std::optional<DarrRecord> DarrRepository::fetch(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(key);
  if (it == records_.end()) {
    facts_.lookup_miss.inc();
    return std::nullopt;
  }
  facts_.lookup_hit.inc();
  return it->second;
}

bool DarrRepository::claim(const std::string& key,
                           const std::string& client) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.count(key) != 0) {
    // Result already exists; claiming is pointless — deny so the caller
    // looks it up instead.
    facts_.claims_denied.inc();
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
      facts_.claims_denied.inc();
      return false;  // live foreign claim
    }
    // Owner presumed dead: steal the claim.
    facts_.claims_expired.inc();
    obs::event(obs::Severity::kWarn, "darr.claim.expired",
               {{"key", key},
                {"stale_owner", it->second.client},
                {"stolen_by", client}});
  }
  claims_[key] = Claim{
      client, now + std::chrono::milliseconds(config_.claim_ttl_ms)};
  facts_.claims_granted.inc();
  return true;
}

void DarrRepository::put(DarrRecord record, double stored_at_sim_time) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(!record.key.empty(), "DarrRepository: record without a key");
  record.stored_at = stored_at_sim_time;
  claims_.erase(record.key);
  records_[record.key] = std::move(record);
  facts_.store.inc();
}

void DarrRepository::release(const std::string& key,
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

DarrRepository::Counters DarrRepository::counters() const {
  Counters out;
  out.hits = facts_.lookup_hit.value();
  out.lookups = out.hits + facts_.lookup_miss.value();
  out.stores = facts_.store.value();
  out.claims_granted = facts_.claims_granted.value();
  out.claims_denied = facts_.claims_denied.value();
  out.claims_expired = facts_.claims_expired.value();
  return out;
}

}  // namespace coda::darr
