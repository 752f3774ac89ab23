// DARR client: adapts a RecordStore — a sharded cluster (one shard for the
// paper's single repository) or a test fake — to the core ResultCache
// interface so a GraphEvaluator cooperates transparently (Fig 2), with
// every repository interaction accounted as simulated network traffic
// through the store's Wire reporting.
#pragma once

#include <mutex>
#include <set>
#include <string>

#include "src/core/evaluator.h"
#include "src/darr/record_store.h"
#include "src/obs/metrics.h"
#include "src/util/retry.h"

namespace coda::darr {

/// ResultCache implementation backed by any RecordStore topology.
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

  /// Any RecordStore (ShardedDarrService, whose single-shard cluster is the
  /// paper's one repository, or a test fake). `client_name` identifies this
  /// client as a record producer and claim holder; `retry` paces
  /// abandon_all()'s release passes. Store
  /// operations that throw NetworkError (their own retry budget spent)
  /// propagate to the evaluator's CooperativeFetch, which degrades to
  /// local evaluation.
  DarrClient(RecordStore* store, std::string client_name,
             RetryPolicy retry = {});

  // ResultCache surface.
  std::optional<CachedResult> fetch(const std::string& key) override;
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

  void count_traffic(const Wire& wire);
  void track_claim(const std::string& key);
  void untrack_claim(const std::string& key);
  bool holds_claim(const std::string& key) const;

  RecordStore* store_;
  std::string name_;
  RetryPolicy retry_;
  Facts facts_;
  mutable std::mutex held_mutex_;
  std::set<std::string> held_claims_;
};

}  // namespace coda::darr
