// Sharded, replicated DARR (DESIGN.md §13): the repository is split across
// N SimNet shard nodes by consistent hashing on the record key (which
// embeds the dataset fingerprint — GraphEvaluator::cache_key), each key
// owned by a primary shard plus R-1 distinct replicas taken clockwise on
// the ring. DarrCluster owns the server tier (nodes, per-shard
// DarrRepository instances, the ring, sync accounting); each client node
// reaches it through its own DarrClient (src/darr/client.h), which serves
// every operation from the first live owner and synchronizes the others
// through dist::sync_replica.
//
// Lease migration: claims and releases replicate to every owner like
// records do, so when a shard node crashes the next owner already knows
// the live leases and serves them in place (ownership migrates with the
// failover order). A replica that missed a sync (counted in the pinned
// `replication.failed_syncs` family) is protected by the claim TTL: the
// worst case is one duplicated evaluation, never a wedged key.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/darr/repository.h"
#include "src/dist/sim_net.h"
#include "src/util/retry.h"

namespace coda::darr {

/// Stable 64-bit string hash (FNV-1a, then a splitmix64 finalizer): pure
/// integer math, so ring placement is identical on every client, platform
/// and run — the property that makes sharded cooperation sound.
std::uint64_t stable_hash64(const std::string& s);

/// Consistent-hash ring with virtual nodes. Each shard contributes
/// `ring_points` points; a key's owners are the first `replication`
/// distinct shards clockwise from the key's hash, primary first. Adding a
/// shard therefore moves ~1/N of the keyspace instead of rehashing it all.
class HashRing {
 public:
  HashRing(std::size_t n_shards, std::size_t replication,
           std::size_t ring_points);

  /// Primary + replica shard indices for `key`, primary first; size ==
  /// min(replication, n_shards), all distinct.
  std::vector<std::size_t> owners(const std::string& key) const;

  std::size_t n_shards() const { return n_shards_; }
  std::size_t replication() const { return replication_; }

 private:
  std::size_t n_shards_;
  std::size_t replication_;
  /// (point hash, shard) sorted by hash — immutable after construction,
  /// so owners() needs no lock.
  std::vector<std::pair<std::uint64_t, std::size_t>> points_;
};

/// The server tier of a sharded DARR: shard nodes `shard0..shardN-1` on
/// one SimNet, each hosting its own DarrRepository (node-named, so
/// per-shard fleet telemetry comes for free), plus the ring and
/// replica-sync accounting. A single repository is {n_shards=1,
/// replication=1}.
class DarrCluster {
 public:
  struct Config {
    std::size_t n_shards = 4;
    /// Copies of every record/lease, including the primary. Clamped to
    /// n_shards; 1 = no replication.
    std::size_t replication = 2;
    std::size_t ring_points = 32;  ///< virtual nodes per shard
    int claim_ttl_ms = 2000;
    /// Retry budget for replica sync transfers (server-to-server).
    RetryPolicy sync_retry = {};
  };

  struct SyncStats {
    std::size_t replica_syncs = 0;  ///< record/lease syncs delivered
    std::size_t failed_syncs = 0;   ///< syncs lost to crash/partition
    std::size_t bytes_shipped = 0;
  };

  DarrCluster(dist::SimNet* net, Config config);
  explicit DarrCluster(dist::SimNet* net);  ///< default Config

  dist::SimNet& net() { return *net_; }
  const HashRing& ring() const { return ring_; }
  std::size_t n_shards() const { return shards_.size(); }
  std::size_t replication() const { return ring_.replication(); }
  dist::NodeId node(std::size_t shard) const;
  DarrRepository& shard(std::size_t i);
  std::vector<std::size_t> owners(const std::string& key) const {
    return ring_.owners(key);
  }

  /// Distinct records across the cluster (replicas counted once).
  std::size_t size() const;

  /// Counters summed over every shard. Replicated writes count once per
  /// copy (stores == records x replication when every sync lands).
  DarrRepository::Counters counters() const;

  SyncStats sync_stats() const;

  const RetryPolicy& sync_retry() const { return config_.sync_retry; }

  /// Sync-accounting hooks used by DarrClient.
  void count_replica_sync(std::size_t bytes);
  void count_failed_sync();

 private:
  dist::SimNet* net_;
  Config config_;
  HashRing ring_;
  std::vector<dist::NodeId> nodes_;
  std::vector<std::unique_ptr<DarrRepository>> shards_;
  mutable std::mutex sync_mutex_;
  SyncStats sync_stats_;
};

}  // namespace coda::darr
