#include "src/darr/client.h"

#include <map>

#include "src/dist/replication.h"
#include "src/dist/retry.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace coda::darr {

namespace {

/// Request framing: a key plus a fixed 16-byte message envelope (also the
/// size of an empty response).
constexpr std::size_t kMessageOverhead = 16;

std::size_t key_request_size(const std::string& key) {
  return key.size() + kMessageOverhead;
}

CachedResult to_cached(const DarrRecord& record) {
  CachedResult result;
  result.mean_score = record.mean_score;
  result.stddev = record.stddev;
  result.fold_scores = record.fold_scores;
  result.explanation = record.explanation;
  return result;
}

const std::string& client_node_name(DarrCluster* cluster,
                                    dist::NodeId self) {
  require(cluster != nullptr, "DarrClient: null cluster");
  for (std::size_t s = 0; s < cluster->n_shards(); ++s) {
    require(self != cluster->node(s),
            "DarrClient: client and shard must be distinct nodes");
  }
  return cluster->net().node_name(self);
}

}  // namespace

DarrClient::DarrClient(DarrCluster* cluster, dist::NodeId self,
                       RetryPolicy retry)
    : cluster_(cluster),
      self_(self),
      name_(client_node_name(cluster, self)),
      retry_(retry),
      facts_{obs::MetricScope::for_node(name_)} {
  retry_.validate();
}

void DarrClient::count_traffic(std::size_t sent, std::size_t received) {
  facts_.bytes_sent.inc(sent);
  facts_.bytes_received.inc(received);
}

void DarrClient::track_claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(held_mutex_);
  held_claims_.insert(key);
}

void DarrClient::untrack_claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(held_mutex_);
  held_claims_.erase(key);
}

std::size_t DarrClient::serving_shard(const std::string& key) const {
  const auto owners = cluster_->owners(key);
  for (const std::size_t shard : owners) {
    if (cluster_->net().node_up(cluster_->node(shard))) return shard;
  }
  return owners.front();
}

template <typename ApplyFn, typename ReplicateFn>
bool DarrClient::write(const char* op, obs::prof::RegionId repo_region,
                       const std::string& key, std::size_t request,
                       ApplyFn apply, ReplicateFn replicate) {
  dist::SimNet& net = cluster_->net();
  const std::string net_op = std::string("darr.") + op;
  const auto owners = cluster_->owners(key);
  for (const std::size_t shard : owners) {
    const dist::NodeId node = cluster_->node(shard);
    if (!net.node_up(node)) continue;
    bool applied = false;
    try {
      dist::transfer_with_retry(net, self_, node, request, retry_, net_op);
      {
        obs::Region repo_span(repo_region, obs::kTraced);
        repo_span.set_node(net.node_name(node));
        applied = apply(cluster_->shard(shard), repo_span);
      }
      if (applied) {
        // Replicate the change so ownership migrates if this owner crashes:
        // any surviving owner then serves (and defends) it in place.
        const std::string sync_op = std::string("darr.sync.") + op;
        for (const std::size_t other : owners) {
          if (other == shard) continue;
          if (!dist::sync_replica(net, node, cluster_->node(other), request,
                                  cluster_->sync_retry(), sync_op, key)) {
            cluster_->count_failed_sync();
            continue;
          }
          replicate(cluster_->shard(other));
          cluster_->count_replica_sync(request);
        }
      }
      dist::transfer_with_retry(net, node, self_, kMessageOverhead, retry_,
                                net_op);
    } catch (const NetworkError&) {
      if (applied) throw;  // only the response leg was lost
      continue;
    }
    count_traffic(request, kMessageOverhead);
    return applied;
  }
  throw NetworkError(std::string("darr.shard.") + op +
                     ": no reachable owner for " + key);
}

std::optional<CachedResult> DarrClient::fetch(const std::string& key) {
  const obs::Region op(obs::region_id<"darr.client.fetch">(), obs::kTraced);
  dist::SimNet& net = cluster_->net();
  const std::size_t request = key_request_size(key);
  std::size_t sent = 0;
  std::size_t received = 0;
  bool failover = false;  // true once any owner was skipped or unreachable
  bool reached = false;
  std::optional<DarrRecord> found;
  for (const std::size_t shard : cluster_->owners(key)) {
    const dist::NodeId node = cluster_->node(shard);
    if (!net.node_up(node)) {
      failover = true;
      continue;
    }
    try {
      dist::transfer_with_retry(net, self_, node, request, retry_,
                                "darr.fetch");
      std::optional<DarrRecord> record;
      {
        obs::Region repo_span(obs::region_id<"darr.repo.fetch">(),
                              obs::kTraced);
        repo_span.set_node(net.node_name(node));
        record = cluster_->shard(shard).fetch(key);
      }
      const std::size_t response =
          record ? record->wire_size() : kMessageOverhead;
      dist::transfer_with_retry(net, node, self_, response, retry_,
                                "darr.fetch");
      sent += request;
      received += response;
      found = std::move(record);
    } catch (const NetworkError&) {
      failover = true;
      continue;
    }
    reached = true;
    // A miss on the serving owner is authoritative; a miss AFTER a
    // failover may just be a replica that lost a sync — ask the next
    // owner before reporting the record absent.
    if (found || !failover) break;
  }
  if (!reached) {
    throw NetworkError("darr.shard.fetch: no reachable owner for " + key);
  }
  facts_.lookups.inc();
  if (found) facts_.hits.inc();
  count_traffic(sent, received);
  if (!found) return std::nullopt;
  return to_cached(*found);
}

std::vector<std::optional<CachedResult>> DarrClient::fetch_many(
    const std::vector<std::string>& keys) {
  if (keys.empty()) return {};
  obs::Region op(obs::region_id<"darr.client.fetch_many">(), obs::kTraced);
  op.tag("keys", std::to_string(keys.size()));
  dist::SimNet& net = cluster_->net();
  std::vector<std::optional<CachedResult>> out(keys.size());
  // Group keys by serving shard: the sweep costs one round-trip per shard
  // that owns part of the candidate space (deterministic shard order).
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    groups[serving_shard(keys[i])].push_back(i);
  }
  std::size_t sent = 0;
  std::size_t received = 0;
  std::size_t found = 0;
  std::size_t unreachable_groups = 0;
  for (const auto& [shard, indices] : groups) {
    const dist::NodeId node = cluster_->node(shard);
    std::size_t request = 0;
    for (const std::size_t i : indices) request += key_request_size(keys[i]);
    std::vector<std::optional<DarrRecord>> records;
    records.reserve(indices.size());
    try {
      dist::transfer_with_retry(net, self_, node, request, retry_,
                                "darr.fetch_many");
      std::size_t response = 0;
      {
        obs::Region repo_span(obs::region_id<"darr.repo.fetch_many">(),
                              obs::kTraced);
        repo_span.set_node(net.node_name(node));
        for (const std::size_t i : indices) {
          records.push_back(cluster_->shard(shard).fetch(keys[i]));
          response +=
              records.back() ? records.back()->wire_size() : kMessageOverhead;
        }
      }
      dist::transfer_with_retry(net, node, self_, response, retry_,
                                "darr.fetch_many");
      sent += request;
      received += response;
    } catch (const NetworkError&) {
      // This shard's keys stay misses; the sweep keeps cooperating on the
      // shards that answered.
      ++unreachable_groups;
      continue;
    }
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (!records[j]) continue;
      ++found;
      out[indices[j]] = to_cached(*records[j]);
    }
  }
  if (unreachable_groups == groups.size()) {
    throw NetworkError("darr.shard.fetch_many: every shard unreachable");
  }
  facts_.lookups.inc(keys.size());
  facts_.hits.inc(found);
  count_traffic(sent, received);
  return out;
}

bool DarrClient::claim(const std::string& key) {
  const obs::Region op(obs::region_id<"darr.client.claim">(), obs::kTraced);
  const bool granted = write(
      "claim", obs::region_id<"darr.repo.claim">(), key,
      key_request_size(key) + name_.size(),
      [&](DarrRepository& repo, obs::Region& repo_span) {
        const bool granted = repo.claim(key, name_);
        repo_span.tag("granted", granted ? "1" : "0");
        // Tracked before the response leg: if that leg is lost the op
        // throws, and abandon_all() must still be able to free the lease.
        if (granted) track_claim(key);
        return granted;
      },
      [&](DarrRepository& replica) { replica.claim(key, name_); });
  if (granted) {
    facts_.claims_won.inc();
  } else {
    facts_.claims_lost.inc();
  }
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
  const obs::Region op(obs::region_id<"darr.client.put">(), obs::kTraced);
  write(
      "put", obs::region_id<"darr.repo.put">(), key, record.wire_size(),
      [&](DarrRepository& repo, obs::Region&) {
        repo.put(record, cluster_->net().now());
        untrack_claim(key);  // storing released the claim
        return true;
      },
      [&](DarrRepository& replica) {
        replica.put(record, cluster_->net().now());
      });
  facts_.stores.inc();
}

void DarrClient::release(const std::string& key) {
  const obs::Region op(obs::region_id<"darr.client.release">(),
                       obs::kTraced);
  write(
      "release", obs::region_id<"darr.repo.release">(), key,
      key_request_size(key) + name_.size(),
      [&](DarrRepository& repo, obs::Region&) {
        repo.release(key, name_);
        untrack_claim(key);
        return true;
      },
      [&](DarrRepository& replica) { replica.release(key, name_); });
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
        // the shard may still have applied the release before the
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
