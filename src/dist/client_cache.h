// Client-side replica cache (Section III): pull with version negotiation
// (deltas applied locally), and push reception for the three lease modes.
// With notify-only pushes the client learns the new version and change size
// and decides if/when to fetch.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "src/dist/home_store.h"

namespace coda::dist {

/// A client node's local copy of remote objects.
class ClientCache {
 public:
  /// Traffic/behaviour counters.
  struct Stats {
    std::size_t pulls = 0;
    std::size_t full_responses = 0;
    std::size_t delta_responses = 0;
    std::size_t not_modified_responses = 0;
    std::size_t pushes_full = 0;
    std::size_t pushes_delta = 0;
    std::size_t notifications = 0;
    std::size_t delta_fallback_fetches = 0;  ///< delta base mismatch -> pull
    std::size_t stale_pushes = 0;  ///< push at or below the held version
    std::size_t bytes_received = 0;
    std::size_t bytes_saved_by_delta = 0;  ///< full size - delta size sums
  };

  ClientCache(SimNet* net, NodeId self, HomeDataStore* home);

  NodeId node_id() const { return self_; }

  /// Pull protocol: fetches the latest version (sending the held version
  /// number), applies a delta or stores the full value, returns the value.
  const Bytes& get(const std::string& key);

  /// Value currently cached (no network); throws NotFound when absent.
  const Bytes& cached(const std::string& key) const;

  bool has(const std::string& key) const {
    return entries_.count(key) != 0;
  }

  /// Version held locally (0 = none).
  std::uint64_t version(const std::string& key) const;

  /// How many versions behind the home store this client is for `key`.
  std::uint64_t staleness(const std::string& key) const;

  // Lease management (push paradigm).
  void subscribe(const std::string& key, double duration, PushMode mode);
  void renew(const std::string& key, double duration);
  void cancel(const std::string& key);

  /// Delivery point for pushed updates (wired to the store's push handler).
  void on_push(const PushMessage& message);

  /// Version the latest notification announced (notify-only mode); 0 when
  /// none seen. The client can compare against version() and decide to
  /// get() when it actually needs the data.
  std::uint64_t notified_version(const std::string& key) const;

  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t version = 0;
    Bytes value;
    std::uint64_t notified_version = 0;
  };

  /// The `clientcache.*` facts, bound to this cache's node: on_push() runs
  /// on the pushing thread, where the ambient scope (if any) would be the
  /// home store's node. Their own counts fill the matching stats() fields.
  struct Facts {
    obs::MetricScope& node;
    obs::FactCounter pulls{node, "clientcache.pull.count"};
    obs::FactCounter bytes_received{node, "clientcache.bytes_received"};
    obs::FactCounter bytes_saved{node, "clientcache.delta.bytes_saved"};
    obs::FactCounter push_full{node, "clientcache.push.full"};
    obs::FactCounter push_delta{node, "clientcache.push.delta"};
    obs::FactCounter push_notify{node, "clientcache.push.notify"};
    obs::FactCounter push_stale{node, "clientcache.push.stale"};
    obs::ScopedHistogram delta_bytes{node, "clientcache.delta.bytes",
                                     obs::Histogram::default_byte_bounds()};
  };

  SimNet* net_;
  NodeId self_;
  HomeDataStore* home_;
  Facts facts_;
  std::map<std::string, Entry> entries_;
  Stats stats_;  ///< the outcomes with no family of their own
};

}  // namespace coda::dist
