// Home data store (Section III): the authoritative holder of each data
// object. Maintains the current version, recent old versions, and
// precomputed deltas d(o, k-i, k) between retained versions and the latest;
// serves pull requests with version negotiation (delta when the requester's
// version is retained and the delta is worthwhile, full value otherwise);
// and pushes updates to lease holders in one of three modes — full value,
// delta, or notify-only (version + change-size hint, letting the client
// decide if and when to fetch).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/dist/delta.h"
#include "src/dist/sim_net.h"
#include "src/obs/metrics.h"
#include "src/util/retry.h"

namespace coda::dist {

/// How updates are shipped to a subscriber (Section III push paradigm).
enum class PushMode : std::uint8_t {
  kFullValue = 0,
  kDelta = 1,
  kNotifyOnly = 2,
};

std::string push_mode_name(PushMode mode);

/// A pushed update as received by a client.
struct PushMessage {
  std::string key;
  std::uint64_t version = 0;
  PushMode mode = PushMode::kFullValue;
  Bytes full_value;       // kFullValue
  Delta delta;            // kDelta
  std::size_t change_size_hint = 0;  // kNotifyOnly: how big the change is
  std::size_t wire_bytes = 0;        // what this message cost on the wire
};

/// The home data store for a set of objects.
class HomeDataStore {
 public:
  struct Config {
    DeltaConfig delta;
    std::size_t max_history = 4;    ///< retained old versions per object
    double min_delta_ratio = 0.8;   ///< send delta only when its size is
                                    ///< below this fraction of the full value
    /// Transfer retry budget. Client-initiated ops (fetch / subscribe /
    /// renew / cancel) throw NetworkError when it is exhausted; a push that
    /// exhausts it is dropped (`homestore.push.lost`) without advancing the
    /// lease's last-pushed version, so the next push ships a delta from the
    /// base the subscriber actually has — or the subscriber pulls.
    RetryPolicy retry;
  };

  /// Result of a pull request.
  struct FetchResult {
    std::uint64_t version = 0;
    bool is_delta = false;
    Bytes full_value;  // when !is_delta
    Delta delta;       // when is_delta
    std::size_t request_bytes = 0;
    std::size_t response_bytes = 0;
  };

  using PushHandler =
      std::function<void(NodeId client, const PushMessage& message)>;

  HomeDataStore(SimNet* net, NodeId self);
  HomeDataStore(SimNet* net, NodeId self, Config config);

  NodeId node_id() const { return self_; }

  /// Stores a new version of `key` (version number increases by one);
  /// precomputes deltas from every retained old version to the new one and
  /// pushes to live lease holders.
  void put(const std::string& key, Bytes value);

  /// Current version of `key`; 0 when absent.
  std::uint64_t version(const std::string& key) const;

  /// Current value; throws NotFound when absent.
  const Bytes& value(const std::string& key) const;

  /// Pull protocol: the client states the version it already holds
  /// (0 = none). Returns a delta when the client's version is retained and
  /// the (precomputed) delta is sufficiently smaller than the full value.
  /// Network traffic for request and response is accounted on `net`.
  FetchResult fetch(const std::string& key, NodeId requester,
                    std::uint64_t have_version);

  /// Subscribes `client` to updates of `key` for `duration` simulated
  /// seconds (a lease). Renewing extends the expiry; cancelling removes it.
  void subscribe(const std::string& key, NodeId client, double duration,
                 PushMode mode);
  void renew(const std::string& key, NodeId client, double duration);
  void cancel(const std::string& key, NodeId client);

  /// True if `client` holds an unexpired lease on `key`.
  bool has_lease(const std::string& key, NodeId client) const;

  /// Live (unexpired) lease count for `key`.
  std::size_t active_leases(const std::string& key) const;

  /// Routes pushed messages to clients (wired up by the host environment).
  void set_push_handler(PushHandler handler) {
    push_handler_ = std::move(handler);
  }

  /// Deltas currently precomputed for `key` (base versions, ascending).
  std::vector<std::uint64_t> retained_delta_bases(
      const std::string& key) const;

 private:
  struct Lease {
    NodeId client;
    double expires_at;
    PushMode mode;
    std::uint64_t last_pushed_version = 0;
  };

  struct ObjectState {
    std::uint64_t version = 0;
    Bytes current;
    std::map<std::uint64_t, Bytes> recent;   // old version -> value
    std::map<std::uint64_t, Delta> deltas;   // base version -> d(base, k)
    std::vector<Lease> leases;
  };

  /// The `homestore.*` facts, bound to this store's node (not the thread's
  /// ambient scope: store methods run on caller threads, and attribution
  /// stays on the home node). One inc()/observe() per event.
  struct Facts {
    obs::MetricScope& node;
    obs::FactCounter put{node, "homestore.put"};
    obs::FactCounter push_full{node, "homestore.push.full"};
    obs::FactCounter push_delta{node, "homestore.push.delta"};
    obs::FactCounter push_notify{node, "homestore.push.notify"};
    obs::FactCounter push_lost{node, "homestore.push.lost"};
    obs::FactCounter fetch_not_modified{node, "homestore.fetch.not_modified"};
    obs::FactCounter fetch_delta{node, "homestore.fetch.delta"};
    obs::FactCounter fetch_full{node, "homestore.fetch.full"};
    obs::ScopedHistogram delta_bytes{node, "homestore.delta.bytes",
                                     obs::Histogram::default_byte_bounds()};
  };

  ObjectState& state_of(const std::string& key);
  const ObjectState& state_of(const std::string& key) const;
  void push_update(const std::string& key, ObjectState& state,
                   const Bytes& previous_value);
  static std::size_t request_size(const std::string& key) {
    return key.size() + 16;  // key + version + framing
  }

  SimNet* net_;
  NodeId self_;
  Config config_;
  Facts facts_;
  std::map<std::string, ObjectState> objects_;
  PushHandler push_handler_;
};

}  // namespace coda::dist
