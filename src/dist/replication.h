// Geographic replication (Section III: "The data may be replicated across
// multiple geographic areas for high availability and disaster recovery in
// case one site fails").
//
// A ReplicatedStore fronts one primary HomeDataStore plus N replicas on
// distinct nodes. put() writes the primary and synchronizes replicas by
// delta (cheap) or full value; clients fetch through the replica set,
// which routes to the nearest healthy site and fails over when a site is
// marked down.
#pragma once

#include <memory>
#include <vector>

#include "src/dist/home_store.h"

namespace coda::dist {

/// Ships one `bytes`-sized sync message from `primary` to `replica` under
/// `retry`. Returns false — counting the pinned `replication.failed_syncs`
/// family (attributed to the primary's node shard) and a flight-recorder
/// event — when the replica is inside a crash window or unreachable past
/// the retry budget; the replica then keeps its old state and catches up
/// on a later sync. Shared by ReplicatedStore::put and the DARR shard
/// replication (darr::DarrClient).
bool sync_replica(SimNet& net, NodeId primary, NodeId replica,
                  std::size_t bytes, const RetryPolicy& retry,
                  const std::string& op, const std::string& key);

/// A primary-plus-replicas group of home data stores.
class ReplicatedStore {
 public:
  struct Config {
    HomeDataStore::Config store;
    bool delta_sync = true;  ///< synchronize replicas by delta when smaller
  };

  struct SyncStats {
    std::size_t full_syncs = 0;
    std::size_t delta_syncs = 0;
    /// Replica syncs abandoned after the retry budget (the replica keeps
    /// its old version and catches up on the next put() or resync()).
    std::size_t failed_syncs = 0;
    std::size_t bytes_shipped = 0;
  };

  /// Creates the group: `nodes[0]` is the primary, the rest replicas.
  ReplicatedStore(SimNet* net, std::vector<NodeId> nodes);
  ReplicatedStore(SimNet* net, std::vector<NodeId> nodes, Config config);

  std::size_t n_sites() const { return stores_.size(); }
  HomeDataStore& site(std::size_t i);

  /// Writes through the primary and synchronizes every healthy replica.
  void put(const std::string& key, Bytes value);

  /// Marks a site failed (disaster); it stops serving and syncing.
  void fail_site(std::size_t i);

  /// Brings a failed site back; it catches up on the next put() or can be
  /// caught up immediately with resync().
  void recover_site(std::size_t i);

  /// Ships current values of every key to a (recovered) site.
  void resync(std::size_t i);

  bool is_healthy(std::size_t i) const;

  /// Serves a fetch from the first healthy site (primary preferred). Throws
  /// NotFound when every site is down.
  HomeDataStore::FetchResult fetch(const std::string& key, NodeId requester,
                                   std::uint64_t have_version);

  /// Index of the site fetch() would use now; throws NotFound if none.
  std::size_t serving_site() const;

  const SyncStats& sync_stats() const { return sync_stats_; }

 private:
  SimNet* net_;
  Config config_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<HomeDataStore>> stores_;
  std::vector<bool> healthy_;
  std::vector<std::string> keys_;  // every key ever written (for resync)
  SyncStats sync_stats_;
};

}  // namespace coda::dist
