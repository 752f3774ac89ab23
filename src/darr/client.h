// DARR client (DESIGN.md §13): one client node's connection to the shared
// repository tier (Fig 2). A DarrClient is the core ResultCache a
// GraphEvaluator cooperates through; behind it, every operation routes on
// the DarrCluster's hash ring to the key's first live owner (primary
// unless crashed or unreachable — that is the failover), applies there,
// replicates the state change to the remaining owners, and is accounted
// as simulated network traffic. A single-shard cluster is the paper's one
// repository.
#pragma once

#include <mutex>
#include <set>
#include <string>

#include "src/core/evaluator.h"
#include "src/darr/sharded.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/util/retry.h"

namespace coda::darr {

/// ResultCache implementation over a DarrCluster: one instance per client
/// node.
class DarrClient final : public ResultCache {
 public:
  /// Per-client traffic/behaviour snapshot: a point-in-time view of this
  /// instance's own counts of the `darr.client.*` facts.
  struct Stats {
    std::size_t lookups = 0;
    std::size_t hits = 0;
    std::size_t claims_won = 0;
    std::size_t claims_lost = 0;
    std::size_t stores = 0;
    std::size_t bytes_sent = 0;
    std::size_t bytes_received = 0;

    bool operator==(const Stats&) const = default;
  };

  /// `self` is the client's node; it must not be one of the shard nodes.
  /// Its SimNet name identifies this client as a record producer and claim
  /// holder. `retry` is the transfer budget of every operation and paces
  /// abandon_all()'s release passes. Operations that throw NetworkError
  /// (their retry budget spent on every owner) propagate to the
  /// evaluator's CooperativeFetch, which degrades to local evaluation.
  DarrClient(DarrCluster* cluster, dist::NodeId self, RetryPolicy retry = {});

  // ResultCache surface.
  std::optional<CachedResult> fetch(const std::string& key) override;
  /// Grouped sweep: one round-trip per serving shard instead of one per
  /// key. A shard unreachable past the retry budget reports its keys as
  /// misses (cooperation continues on the live shards); NetworkError
  /// propagates only when every shard was unreachable.
  std::vector<std::optional<CachedResult>> fetch_many(
      const std::vector<std::string>& keys) override;
  bool claim(const std::string& key) override;
  void put(const std::string& key, const CachedResult& result) override;
  void release(const std::string& key) override;

  const std::string& client_name() const { return name_; }
  Stats stats() const;

  /// Releases every claim this client currently holds so peers can reclaim
  /// the work. Called on crash-recovery (a restarted node must not leave
  /// orphaned claims pinning candidates until TTL expiry) and safe to call
  /// when nothing is held. Runs up to retry_.max_attempts release passes:
  /// a claim whose release RPC exhausted its transfer budget stays tracked
  /// and is retried on the next pass — each inner retry's backoff advances
  /// the SimNet logical clock, so a transient partition or crash window
  /// can heal mid-call and the lease is released instead of leaking until
  /// TTL expiry. Keys still unreachable after the last pass stay tracked
  /// for a later call.
  void abandon_all();

  /// Keys this client has claimed but not yet stored or released.
  std::vector<std::string> held_claims() const;

 private:
  /// The `darr.client.*` facts: each inc() moves this client's own count
  /// (the stats() view), the process-wide family and the client node's
  /// shard. Atomic, so evaluator threads need no client-side lock.
  struct Facts {
    obs::MetricScope& node;
    obs::FactCounter lookups{node, "darr.client.lookups"};
    obs::FactCounter hits{node, "darr.client.hits"};
    obs::FactCounter claims_won{node, "darr.client.claims_won"};
    obs::FactCounter claims_lost{node, "darr.client.claims_lost"};
    obs::FactCounter stores{node, "darr.client.stores"};
    obs::FactCounter bytes_sent{node, "darr.client.bytes_sent"};
    obs::FactCounter bytes_received{node, "darr.client.bytes_received"};
  };

  /// Runs one state change (`op` = claim, put or release) on the first
  /// live owner of `key`: the request leg, `apply` on that owner's
  /// repository inside its traced `repo_region` (`darr.repo.<op>`),
  /// `replicate` on every other owner when apply reports a change, and
  /// the response leg. An owner lost before it applied anything is
  /// skipped for the next one; once a change is applied, a lost response
  /// leg rethrows, because failing over would apply it twice. Returns
  /// apply's result and counts the answering owner's bytes.
  template <typename ApplyFn, typename ReplicateFn>
  bool write(const char* op, obs::prof::RegionId repo_region,
             const std::string& key, std::size_t request, ApplyFn apply,
             ReplicateFn replicate);

  /// First owner of `key` that is outside a crash window (the serving
  /// shard for grouped sweeps); falls back to the primary when every
  /// owner is down.
  std::size_t serving_shard(const std::string& key) const;

  void count_traffic(std::size_t sent, std::size_t received);
  void track_claim(const std::string& key);
  void untrack_claim(const std::string& key);
  bool holds_claim(const std::string& key) const;

  DarrCluster* cluster_;
  dist::NodeId self_;
  std::string name_;
  RetryPolicy retry_;
  Facts facts_;
  mutable std::mutex held_mutex_;
  std::set<std::string> held_claims_;
};

}  // namespace coda::darr
