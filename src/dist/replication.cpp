#include "src/dist/replication.h"

#include <algorithm>

#include "src/dist/retry.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace coda::dist {

bool sync_replica(SimNet& net, NodeId primary, NodeId replica,
                  std::size_t bytes, const RetryPolicy& retry,
                  const std::string& op, const std::string& key) {
  // A replica inside a crash window is skipped without burning the retry
  // budget (and the backoff clock): the sync is known-failed immediately.
  if (net.node_up(replica)) {
    try {
      transfer_with_retry(net, primary, replica, bytes, retry, op);
      return true;
    } catch (const NetworkError&) {
      // fall through to the failure accounting
    }
  }
  obs::count_scoped(node_scope(&net, primary), "replication.failed_syncs");
  obs::event(obs::Severity::kError, "replication.sync.failed",
             {{"key", key}, {"replica", net.node_name(replica)}});
  return false;
}

ReplicatedStore::ReplicatedStore(SimNet* net, std::vector<NodeId> nodes)
    : ReplicatedStore(net, std::move(nodes), Config()) {}

ReplicatedStore::ReplicatedStore(SimNet* net, std::vector<NodeId> nodes,
                                 Config config)
    : net_(net), config_(config), nodes_(std::move(nodes)) {
  require(net != nullptr, "ReplicatedStore: null network");
  require(nodes_.size() >= 2,
          "ReplicatedStore: need a primary and at least one replica");
  stores_.reserve(nodes_.size());
  for (const NodeId node : nodes_) {
    stores_.push_back(
        std::make_unique<HomeDataStore>(net, node, config_.store));
  }
  healthy_.assign(nodes_.size(), true);
}

HomeDataStore& ReplicatedStore::site(std::size_t i) {
  require(i < stores_.size(), "ReplicatedStore: site index out of range");
  return *stores_[i];
}

void ReplicatedStore::put(const std::string& key, Bytes value) {
  if (std::find(keys_.begin(), keys_.end(), key) == keys_.end()) {
    keys_.push_back(key);
  }
  // The primary applies the write locally; replicas receive it over the
  // network, as a delta against their current version when worthwhile.
  const Bytes previous = stores_[0]->version(key) > 0
                             ? stores_[0]->value(key)
                             : Bytes{};
  stores_[0]->put(key, value);
  obs::Region span(obs::region_id<"replication.put">(), obs::kTraced);
  span.set_node(net_->node_name(nodes_[0]));
  span.tag("key", key);
  for (std::size_t i = 1; i < stores_.size(); ++i) {
    if (!healthy_[i]) continue;
    HomeDataStore& replica = *stores_[i];
    // Sync by delta against the replica's current version when worthwhile,
    // full value otherwise. A failed sync (sync_replica counts it in the
    // replication.failed_syncs family) leaves the replica on its old
    // version; it catches up on the next put() or an explicit resync().
    std::size_t sync_bytes = value.size();
    bool delta = false;
    if (config_.delta_sync && !previous.empty() &&
        replica.version(key) == stores_[0]->version(key) - 1) {
      const Delta d = compute_delta(previous, value, config_.store.delta);
      if (d.encoded_size() < value.size()) {
        sync_bytes = d.encoded_size();
        delta = true;
      }
    }
    if (!sync_replica(*net_, nodes_[0], nodes_[i], sync_bytes,
                      config_.store.retry, "replication.sync", key)) {
      ++sync_stats_.failed_syncs;
      continue;
    }
    sync_stats_.bytes_shipped += sync_bytes;
    ++(delta ? sync_stats_.delta_syncs : sync_stats_.full_syncs);
    replica.put(key, value);
  }
}

void ReplicatedStore::fail_site(std::size_t i) {
  require(i < healthy_.size(), "ReplicatedStore: site index out of range");
  healthy_[i] = false;
}

void ReplicatedStore::recover_site(std::size_t i) {
  require(i < healthy_.size(), "ReplicatedStore: site index out of range");
  healthy_[i] = true;
}

void ReplicatedStore::resync(std::size_t i) {
  require(i < stores_.size(), "ReplicatedStore: site index out of range");
  require(healthy_[i], "ReplicatedStore: resync of a failed site");
  const std::size_t source = serving_site();
  for (const auto& key : keys_) {
    if (stores_[source]->version(key) == 0) continue;
    const Bytes& value = stores_[source]->value(key);
    if (stores_[i]->version(key) == stores_[source]->version(key)) continue;
    transfer_with_retry(*net_, nodes_[source], nodes_[i], value.size(),
                        config_.store.retry, "replication.resync");
    sync_stats_.bytes_shipped += value.size();
    ++sync_stats_.full_syncs;
    // Bring the replica's version in line by replaying the value until the
    // version numbers match (versions are per-store counters).
    while (stores_[i]->version(key) < stores_[source]->version(key)) {
      stores_[i]->put(key, value);
    }
  }
}

bool ReplicatedStore::is_healthy(std::size_t i) const {
  require(i < healthy_.size(), "ReplicatedStore: site index out of range");
  return healthy_[i];
}

std::size_t ReplicatedStore::serving_site() const {
  for (std::size_t i = 0; i < healthy_.size(); ++i) {
    if (healthy_[i]) return i;
  }
  throw NotFound("ReplicatedStore: every site is down");
}

HomeDataStore::FetchResult ReplicatedStore::fetch(
    const std::string& key, NodeId requester, std::uint64_t have_version) {
  return stores_[serving_site()]->fetch(key, requester, have_version);
}

}  // namespace coda::dist
