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
#include "src/obs/metrics.h"

namespace coda::darr {

/// Thread-safe repository of analytics results with expiring claims: one
/// shard of the DARR tier. It speaks the client's vocabulary (fetch /
/// claim / put / release), but clients reach it only through their
/// DarrClient, which routes, replicates and accounts the traffic
/// (DESIGN.md §13).
class DarrRepository {
 public:
  struct Config {
    /// Claim time-to-live, in wall-clock milliseconds (claims coordinate
    /// concurrently running client threads).
    int claim_ttl_ms = 2000;
    /// SimNet node this repository represents for fleet telemetry: the
    /// `darr.repo.*` / `darr.claim.*` facts land in
    /// obs::MetricScope::for_node(node_name) alongside the process-wide
    /// registry.
    std::string node_name = "darr";
  };

  /// Per-instance counter snapshot: a point-in-time view of this
  /// repository's own counts of its `darr.repo.*` / `darr.claim.*` facts.
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
  std::optional<DarrRecord> fetch(const std::string& key);

  /// Attempts to claim `key` for `client`. Returns true when the claim is
  /// granted (no record yet and no live foreign claim). A client re-claims
  /// its own key idempotently.
  bool claim(const std::string& key, const std::string& client);

  /// Stores a record (releases any claim on its key).
  void put(DarrRecord record, double stored_at_sim_time = 0.0);

  /// Releases `client`'s claim without storing (local failure).
  void release(const std::string& key, const std::string& client);

  std::size_t size() const;

  /// Keys of every stored record whose key begins with `prefix` — this is
  /// how clients "determine which calculations have been run for a certain
  /// data set" (prefix = the dataset fingerprint).
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;

  /// Records stored by a given producer (per-client contribution stats).
  std::size_t records_by(const std::string& producer) const;

  Counters counters() const;

 private:
  struct Claim {
    std::string client;
    std::chrono::steady_clock::time_point expires_at;
  };

  /// One handle per fact: inc() moves this repository's own count (the
  /// counters() view), the process-wide family and the node's shard. A
  /// lookup's own count is hit + miss.
  struct Facts {
    obs::MetricScope& node;
    obs::FactCounter lookup_hit{node, "darr.repo.lookup.hit"};
    obs::FactCounter lookup_miss{node, "darr.repo.lookup.miss"};
    obs::FactCounter store{node, "darr.repo.store"};
    obs::FactCounter claims_granted{node, "darr.claim.granted"};
    obs::FactCounter claims_denied{node, "darr.claim.denied"};
    obs::FactCounter claims_expired{node, "darr.claim.expired"};
  };

  Config config_;
  mutable std::mutex mutex_;
  std::map<std::string, DarrRecord> records_;
  std::map<std::string, Claim> claims_;
  Facts facts_;
};

}  // namespace coda::darr
