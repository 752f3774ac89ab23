#include "src/darr/sharded.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/dist/replication.h"
#include "src/dist/retry.h"
#include "src/obs/trace.h"

namespace coda::darr {

std::uint64_t stable_hash64(const std::string& s) {
  // FNV-1a over the bytes, then splitmix64 to spread low-entropy inputs
  // (ring point labels differ only in a few digits) across the ring.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

HashRing::HashRing(std::size_t n_shards, std::size_t replication,
                   std::size_t ring_points)
    : n_shards_(n_shards), replication_(std::min(replication, n_shards)) {
  require(n_shards >= 1, "HashRing: need >= 1 shard");
  require(replication >= 1, "HashRing: need replication >= 1");
  require(ring_points >= 1, "HashRing: need >= 1 ring point per shard");
  points_.reserve(n_shards * ring_points);
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    for (std::size_t v = 0; v < ring_points; ++v) {
      const std::string label =
          "ring:" + std::to_string(shard) + ":" + std::to_string(v);
      points_.emplace_back(stable_hash64(label), shard);
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::vector<std::size_t> HashRing::owners(const std::string& key) const {
  const std::uint64_t h = stable_hash64(key);
  std::vector<std::size_t> out;
  out.reserve(replication_);
  // Walk clockwise from the key's position, collecting distinct shards.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), std::make_pair(h, std::size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t step = 0;
       step < points_.size() && out.size() < replication_; ++step) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

DarrCluster::DarrCluster(dist::SimNet* net, Config config)
    : net_(net),
      config_(std::move(config)),
      ring_(config_.n_shards, config_.replication, config_.ring_points) {
  require(net != nullptr, "DarrCluster: null network");
  config_.sync_retry.validate();
  // Register the failed-sync family up front so a healthy run still
  // exports the pinned metric name (tests/golden/metrics_keys.txt).
  obs::counter("replication.failed_syncs");
  nodes_.reserve(config_.n_shards);
  shards_.reserve(config_.n_shards);
  for (std::size_t i = 0; i < config_.n_shards; ++i) {
    const std::string name = "shard" + std::to_string(i);
    nodes_.push_back(net_->add_node(name));
    DarrRepository::Config repo_config;
    repo_config.claim_ttl_ms = config_.claim_ttl_ms;
    repo_config.node_name = name;
    shards_.push_back(std::make_unique<DarrRepository>(repo_config));
  }
}

DarrCluster::DarrCluster(dist::SimNet* net) : DarrCluster(net, Config{}) {}

dist::NodeId DarrCluster::node(std::size_t shard) const {
  require(shard < nodes_.size(), "DarrCluster: shard index out of range");
  return nodes_[shard];
}

DarrRepository& DarrCluster::shard(std::size_t i) {
  require(i < shards_.size(), "DarrCluster: shard index out of range");
  return *shards_[i];
}

std::size_t DarrCluster::size() const {
  std::set<std::string> keys;
  for (const auto& shard : shards_) {
    for (auto& key : shard->keys_with_prefix("")) keys.insert(std::move(key));
  }
  return keys.size();
}

DarrRepository::Counters DarrCluster::counters() const {
  DarrRepository::Counters out;
  for (const auto& shard : shards_) {
    const auto c = shard->counters();
    out.lookups += c.lookups;
    out.hits += c.hits;
    out.stores += c.stores;
    out.claims_granted += c.claims_granted;
    out.claims_denied += c.claims_denied;
    out.claims_expired += c.claims_expired;
  }
  return out;
}

DarrCluster::SyncStats DarrCluster::sync_stats() const {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  return sync_stats_;
}

void DarrCluster::count_replica_sync(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  ++sync_stats_.replica_syncs;
  sync_stats_.bytes_shipped += bytes;
}

void DarrCluster::count_failed_sync() {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  ++sync_stats_.failed_syncs;
}

ShardedDarrService::ShardedDarrService(DarrCluster* cluster,
                                       dist::NodeId self, RetryPolicy retry)
    : cluster_(cluster), self_(self), retry_(retry) {
  require(cluster != nullptr, "ShardedDarrService: null cluster");
  retry_.validate();
  for (std::size_t s = 0; s < cluster->n_shards(); ++s) {
    require(self != cluster->node(s),
            "ShardedDarrService: client and shard must be distinct nodes");
  }
}

std::size_t ShardedDarrService::serving_shard(const std::string& key) const {
  const auto owners = cluster_->owners(key);
  for (const std::size_t shard : owners) {
    if (cluster_->net().node_up(cluster_->node(shard))) return shard;
  }
  return owners.front();
}

template <typename ApplyFn>
void ShardedDarrService::sync_owners(std::size_t serving,
                                     const std::vector<std::size_t>& owners,
                                     const std::string& key,
                                     std::size_t bytes, const std::string& op,
                                     ApplyFn apply_fn) {
  for (const std::size_t shard : owners) {
    if (shard == serving) continue;
    if (!dist::sync_replica(cluster_->net(), cluster_->node(serving),
                            cluster_->node(shard), bytes,
                            cluster_->sync_retry(), op, key)) {
      cluster_->count_failed_sync();
      continue;
    }
    apply_fn(cluster_->shard(shard));
    cluster_->count_replica_sync(bytes);
  }
}

std::optional<DarrRecord> ShardedDarrService::fetch(const std::string& key,
                                                    Wire& wire) {
  const auto owners = cluster_->owners(key);
  const std::size_t request = key_request_size(key);
  bool failover = false;  // true once any owner was skipped or unreachable
  bool reached = false;
  for (const std::size_t shard : owners) {
    const dist::NodeId node = cluster_->node(shard);
    if (!cluster_->net().node_up(node)) {
      failover = true;
      continue;
    }
    std::optional<DarrRecord> record;
    try {
      dist::transfer_with_retry(cluster_->net(), self_, node, request, retry_,
                                "darr.fetch");
      {
        obs::ScopedSpan repo_span("darr.repo.fetch");
        repo_span.set_node(cluster_->net().node_name(node));
        record = cluster_->shard(shard).fetch(key);
      }
      const std::size_t response =
          record ? record->wire_size() : kMessageOverhead;
      dist::transfer_with_retry(cluster_->net(), node, self_, response,
                                retry_, "darr.fetch");
      wire.bytes_sent += request;
      wire.bytes_received += response;
    } catch (const NetworkError&) {
      failover = true;
      continue;
    }
    // A miss on the serving owner is authoritative; a miss AFTER a
    // failover may just be a replica that lost a sync — ask the next
    // owner before reporting the record absent.
    if (record || !failover) return record;
    reached = true;
  }
  if (reached) return std::nullopt;
  throw NetworkError("darr.shard.fetch: no reachable owner for " + key);
}

std::vector<std::optional<DarrRecord>> ShardedDarrService::fetch_many(
    const std::vector<std::string>& keys, Wire& wire) {
  std::vector<std::optional<DarrRecord>> out(keys.size());
  // Group keys by serving shard: the sweep costs one round-trip per shard
  // that owns part of the candidate space (deterministic shard order).
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    groups[serving_shard(keys[i])].push_back(i);
  }
  std::size_t unreachable_groups = 0;
  for (const auto& [shard, indices] : groups) {
    const dist::NodeId node = cluster_->node(shard);
    std::size_t request = 0;
    for (const std::size_t i : indices) request += key_request_size(keys[i]);
    try {
      dist::transfer_with_retry(cluster_->net(), self_, node, request, retry_,
                                "darr.fetch_many");
      std::size_t response = 0;
      {
        obs::ScopedSpan repo_span("darr.repo.fetch_many");
        repo_span.set_node(cluster_->net().node_name(node));
        for (const std::size_t i : indices) {
          auto record = cluster_->shard(shard).fetch(keys[i]);
          response += record ? record->wire_size() : kMessageOverhead;
          out[i] = std::move(record);
        }
      }
      dist::transfer_with_retry(cluster_->net(), node, self_, response,
                                retry_, "darr.fetch_many");
      wire.bytes_sent += request;
      wire.bytes_received += response;
    } catch (const NetworkError&) {
      // This shard's keys stay misses; the sweep keeps cooperating on the
      // shards that answered.
      ++unreachable_groups;
    }
  }
  if (!groups.empty() && unreachable_groups == groups.size()) {
    throw NetworkError("darr.shard.fetch_many: every shard unreachable");
  }
  return out;
}

bool ShardedDarrService::claim(const std::string& key,
                               const std::string& client, Wire& wire) {
  const auto owners = cluster_->owners(key);
  const std::size_t request = key_request_size(key) + client.size();
  for (const std::size_t shard : owners) {
    const dist::NodeId node = cluster_->node(shard);
    if (!cluster_->net().node_up(node)) continue;
    try {
      dist::transfer_with_retry(cluster_->net(), self_, node, request, retry_,
                                "darr.claim");
      bool granted = false;
      {
        obs::ScopedSpan repo_span("darr.repo.claim");
        repo_span.set_node(cluster_->net().node_name(node));
        granted = cluster_->shard(shard).claim(key, client);
        repo_span.tag("granted", granted ? "1" : "0");
      }
      wire.applied = granted;
      if (granted) {
        // Replicate the lease so ownership migrates if this owner crashes
        // mid-computation: any surviving owner then serves (and defends)
        // the claim in place.
        sync_owners(shard, owners, key, request, "darr.sync.claim",
                    [&](DarrRepository& replica) {
                      replica.claim(key, client);
                    });
      }
      dist::transfer_with_retry(cluster_->net(), node, self_,
                                kMessageOverhead, retry_, "darr.claim");
      wire.bytes_sent += request;
      wire.bytes_received += kMessageOverhead;
      return granted;
    } catch (const NetworkError&) {
      // Failover: if the lease was applied before the response leg died the
      // caller tracks it via wire.applied; trying the next owner instead
      // would double-grant.
      if (wire.applied) throw;
      continue;
    }
  }
  throw NetworkError("darr.shard.claim: no reachable owner for " + key);
}

void ShardedDarrService::put(DarrRecord record, Wire& wire) {
  const auto owners = cluster_->owners(record.key);
  const std::size_t request = record.wire_size();
  for (const std::size_t shard : owners) {
    const dist::NodeId node = cluster_->node(shard);
    if (!cluster_->net().node_up(node)) continue;
    try {
      dist::transfer_with_retry(cluster_->net(), self_, node, request, retry_,
                                "darr.put");
      {
        obs::ScopedSpan repo_span("darr.repo.put");
        repo_span.set_node(cluster_->net().node_name(node));
        cluster_->shard(shard).put(record, cluster_->net().now());
      }
      wire.applied = true;
      sync_owners(shard, owners, record.key, request, "darr.sync.put",
                  [&](DarrRepository& replica) {
                    replica.put(record, cluster_->net().now());
                  });
      dist::transfer_with_retry(cluster_->net(), node, self_,
                                kMessageOverhead, retry_, "darr.put");
      wire.bytes_sent += request;
      wire.bytes_received += kMessageOverhead;
      return;
    } catch (const NetworkError&) {
      if (wire.applied) throw;  // stored; only the response leg was lost
      continue;
    }
  }
  throw NetworkError("darr.shard.put: no reachable owner for " +
                     record.key);
}

void ShardedDarrService::release(const std::string& key,
                                 const std::string& client, Wire& wire) {
  const auto owners = cluster_->owners(key);
  const std::size_t request = key_request_size(key) + client.size();
  for (const std::size_t shard : owners) {
    const dist::NodeId node = cluster_->node(shard);
    if (!cluster_->net().node_up(node)) continue;
    try {
      dist::transfer_with_retry(cluster_->net(), self_, node, request, retry_,
                                "darr.release");
      {
        obs::ScopedSpan repo_span("darr.repo.release");
        repo_span.set_node(cluster_->net().node_name(node));
        cluster_->shard(shard).release(key, client);
      }
      wire.applied = true;
      sync_owners(shard, owners, key, request, "darr.sync.release",
                  [&](DarrRepository& replica) {
                    replica.release(key, client);
                  });
      dist::transfer_with_retry(cluster_->net(), node, self_,
                                kMessageOverhead, retry_, "darr.release");
      wire.bytes_sent += request;
      wire.bytes_received += kMessageOverhead;
      return;
    } catch (const NetworkError&) {
      if (wire.applied) throw;
      continue;
    }
  }
  throw NetworkError("darr.shard.release: no reachable owner for " + key);
}

std::size_t ShardedDarrService::n_records() const { return cluster_->size(); }

}  // namespace coda::darr
