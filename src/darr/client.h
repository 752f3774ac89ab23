// DARR client: adapts a RecordStore — a sharded cluster (one shard for the
// paper's single repository), an in-process repository, or a test fake —
// to the core ResultCache interface so a GraphEvaluator cooperates
// transparently (Fig 2), with every repository interaction accounted as
// simulated network traffic through the store's Wire reporting.
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
  /// instance's own (unregistered) counters.
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

  /// Any RecordStore (ShardedDarrService, an in-process DarrRepository, a
  /// test fake). `client_name` identifies this client as a record producer
  /// and claim holder; `retry` paces abandon_all()'s release passes. Store
  /// operations that throw NetworkError (their own retry budget spent)
  /// propagate to the evaluator's CooperativeFetch, which degrades to
  /// local evaluation.
  DarrClient(RecordStore* store, std::string client_name,
             RetryPolicy retry = {});

  // ResultCache canonical surface (the deprecated lookup/try_claim/store/
  // abandon spellings delegate here via the base class).
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
  /// This instance's counters, never registered (the stats() view);
  /// atomic, so evaluator threads need no client-side lock.
  struct InstanceCounters {
    obs::Counter lookups;
    obs::Counter hits;
    obs::Counter claims_won;
    obs::Counter claims_lost;
    obs::Counter stores;
    obs::Counter bytes_sent;
    obs::Counter bytes_received;
  };

  /// Process-wide `darr.client.*` family counters paired with this
  /// client's node shard (fleet telemetry): one inc() hits both.
  struct FamilyCounters {
    obs::ScopedCounter lookups;
    obs::ScopedCounter hits;
    obs::ScopedCounter claims_won;
    obs::ScopedCounter claims_lost;
    obs::ScopedCounter stores;
    obs::ScopedCounter bytes_sent;
    obs::ScopedCounter bytes_received;
  };

  void count_traffic(const Wire& wire);
  void track_claim(const std::string& key);
  void untrack_claim(const std::string& key);
  bool holds_claim(const std::string& key) const;

  RecordStore* store_;
  std::string name_;
  RetryPolicy retry_;
  InstanceCounters stats_;
  FamilyCounters family_;
  mutable std::mutex held_mutex_;
  std::set<std::string> held_claims_;
};

}  // namespace coda::darr
