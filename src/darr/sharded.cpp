#include "src/darr/sharded.h"

#include <algorithm>
#include <set>

#include "src/obs/metrics.h"
#include "src/util/error.h"
#include "src/util/random.h"

namespace coda::darr {

std::uint64_t stable_hash64(const std::string& s) {
  // FNV-1a over the bytes, then splitmix64 to spread low-entropy inputs
  // (ring point labels differ only in a few digits) across the ring.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return mix64(h);
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

}  // namespace coda::darr
