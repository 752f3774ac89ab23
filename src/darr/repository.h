// The Data Analytics Results Repository (Section III, Fig 2): a cloud-
// resident store that multiple clients read and write so they can share
// results and avoid redundant calculations.
//
// Cooperation protocol: before computing a calculation, a client claims its
// key. A live claim tells other clients the result is on its way, so they
// work on something else (or wait). Claims expire after a TTL — a client
// that crashes mid-computation does not block the key forever (failure
// injection for this case is exercised in the tests).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/darr/record.h"
#include "src/darr/record_store.h"
#include "src/obs/metrics.h"

namespace coda::darr {

/// Thread-safe repository of analytics results with expiring claims. Also
/// the in-process RecordStore implementation (DESIGN.md §13): fetch/claim/
/// put/release map onto lookup/try_claim/store/abandon with no simulated
/// traffic, so tests and single-process tools can drive the unified surface
/// without a SimNet.
class DarrRepository : public RecordStore {
 public:
  struct Config {
    /// Claim time-to-live, in wall-clock milliseconds (claims coordinate
    /// concurrently running client threads).
    int claim_ttl_ms = 2000;
    /// SimNet node this repository represents for fleet telemetry: the
    /// `darr.repo.*` / `darr.claim.*` families are dual-written into
    /// obs::MetricScope::for_node(node_name) alongside the process-wide
    /// registry.
    std::string node_name = "darr";
  };

  /// Per-instance counter snapshot: a point-in-time view of this
  /// repository's own (unregistered) counters.
  struct Counters {
    std::size_t lookups = 0;
    std::size_t hits = 0;
    std::size_t stores = 0;
    std::size_t claims_granted = 0;
    std::size_t claims_denied = 0;   ///< redundant work avoided
    std::size_t claims_expired = 0;  ///< claims stolen after owner timeout

    bool operator==(const Counters&) const = default;
  };

  DarrRepository();
  explicit DarrRepository(Config config);

  /// Returns the record for `key`, if stored.
  std::optional<DarrRecord> lookup(const std::string& key);

  /// Attempts to claim `key` for `client`. Returns true when the claim is
  /// granted (no record yet and no live foreign claim). A client re-claims
  /// its own key idempotently.
  bool try_claim(const std::string& key, const std::string& client);

  /// Stores a record (releases any claim on its key).
  void store(DarrRecord record, double stored_at_sim_time = 0.0);

  /// Releases `client`'s claim without storing (local failure).
  void abandon(const std::string& key, const std::string& client);

  std::size_t size() const;

  /// Keys of every stored record whose key begins with `prefix` — this is
  /// how clients "determine which calculations have been run for a certain
  /// data set" (prefix = the dataset fingerprint).
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  /// Records stored by a given producer (per-client contribution stats).
  std::size_t records_by(const std::string& producer) const;

  Counters counters() const;

  // RecordStore surface (in-process: zero wire bytes, applied on return).
  std::optional<DarrRecord> fetch(const std::string& key, Wire& wire) override;
  bool claim(const std::string& key, const std::string& client,
             Wire& wire) override;
  void put(DarrRecord record, Wire& wire) override;
  void release(const std::string& key, const std::string& client,
               Wire& wire) override;
  std::size_t n_records() const override { return size(); }

 private:
  struct Claim {
    std::string client;
    std::chrono::steady_clock::time_point expires_at;
  };

  /// This instance's counters, never registered (the counters() view).
  struct InstanceCounters {
    obs::Counter lookups;
    obs::Counter hits;
    obs::Counter stores;
    obs::Counter claims_granted;
    obs::Counter claims_denied;
    obs::Counter claims_expired;
  };

  /// Process-wide family counters paired with this node's shard (fleet
  /// telemetry): one inc() hits both registries.
  struct FamilyCounters {
    obs::ScopedCounter lookup_hit;
    obs::ScopedCounter lookup_miss;
    obs::ScopedCounter store;
    obs::ScopedCounter claims_granted;
    obs::ScopedCounter claims_denied;
    obs::ScopedCounter claims_expired;
  };

  Config config_;
  mutable std::mutex mutex_;
  std::map<std::string, DarrRecord> records_;
  std::map<std::string, Claim> claims_;
  InstanceCounters counters_;
  FamilyCounters family_;
};

}  // namespace coda::darr
