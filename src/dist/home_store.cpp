#include "src/dist/home_store.h"

#include <algorithm>

#include "src/dist/retry.h"
#include "src/obs/obs.h"

namespace coda::dist {

std::string push_mode_name(PushMode mode) {
  switch (mode) {
    case PushMode::kFullValue: return "full";
    case PushMode::kDelta: return "delta";
    case PushMode::kNotifyOnly: return "notify";
  }
  throw InvalidArgument("push_mode_name: unknown mode");
}

HomeDataStore::HomeDataStore(SimNet* net, NodeId self)
    : HomeDataStore(net, self, Config()) {}

HomeDataStore::HomeDataStore(SimNet* net, NodeId self, Config config)
    : net_(net), self_(self), config_(config), facts_{node_scope(net, self)} {
  require(config_.max_history >= 1, "HomeDataStore: max_history must be >= 1");
  require(config_.min_delta_ratio > 0.0 && config_.min_delta_ratio <= 1.0,
          "HomeDataStore: min_delta_ratio out of (0,1]");
  config_.retry.validate();
}

HomeDataStore::ObjectState& HomeDataStore::state_of(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    throw NotFound("HomeDataStore: no object '" + key + "'");
  }
  return it->second;
}

const HomeDataStore::ObjectState& HomeDataStore::state_of(
    const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    throw NotFound("HomeDataStore: no object '" + key + "'");
  }
  return it->second;
}

void HomeDataStore::put(const std::string& key, Bytes value) {
  require(!key.empty(), "HomeDataStore: empty key");
  facts_.put.inc();
  ObjectState& state = objects_[key];
  const Bytes previous = state.current;

  if (state.version > 0) {
    state.recent[state.version] = state.current;
  }
  ++state.version;
  state.current = std::move(value);

  // Trim retained history, then refresh the precomputed deltas
  // d(o, k-i, k) for every retained base (Section III).
  while (state.recent.size() > config_.max_history) {
    state.recent.erase(state.recent.begin());
  }
  state.deltas.clear();
  for (const auto& [old_version, old_value] : state.recent) {
    Delta d = compute_delta(old_value, state.current, config_.delta);
    d.base_version = old_version;
    d.target_version = state.version;
    state.deltas.emplace(old_version, std::move(d));
  }

  push_update(key, state, previous);
}

void HomeDataStore::push_update(const std::string& key, ObjectState& state,
                                const Bytes& previous_value) {
  if (state.leases.empty()) return;
  obs::Region span(obs::region_id<"homestore.push_update">(), obs::kTraced);
  span.set_node(net_->node_name(self_));
  span.tag("key", key);
  const double now = net_->now();
  for (auto& lease : state.leases) {
    if (lease.expires_at <= now) {  // expired: no push
      obs::event(obs::Severity::kWarn, "homestore.lease.expired",
                 {{"key", key},
                  {"client", net_->node_name(lease.client)},
                  {"expired_at", std::to_string(lease.expires_at)},
                  {"clock", std::to_string(now)}});
      continue;
    }
    PushMessage msg;
    msg.key = key;
    msg.version = state.version;
    msg.mode = lease.mode;
    switch (lease.mode) {
      case PushMode::kFullValue:
        msg.full_value = state.current;
        msg.wire_bytes = state.current.size() + request_size(key);
        break;
      case PushMode::kDelta: {
        // Delta relative to what this subscriber last received; fall back
        // to a full value when that base is no longer retained.
        auto it = state.deltas.find(lease.last_pushed_version);
        if (it != state.deltas.end()) {
          msg.delta = it->second;
          msg.wire_bytes = it->second.encoded_size() + request_size(key);
        } else if (lease.last_pushed_version == 0 && !previous_value.empty() &&
                   state.version > 1) {
          msg.mode = PushMode::kFullValue;
          msg.full_value = state.current;
          msg.wire_bytes = state.current.size() + request_size(key);
        } else {
          msg.mode = PushMode::kFullValue;
          msg.full_value = state.current;
          msg.wire_bytes = state.current.size() + request_size(key);
        }
        break;
      }
      case PushMode::kNotifyOnly: {
        // Hint: how much the object changed (encoded delta size when
        // available, else the full size).
        auto it = state.deltas.find(state.version - 1);
        msg.change_size_hint = it != state.deltas.end()
                                   ? it->second.encoded_size()
                                   : state.current.size();
        msg.wire_bytes = request_size(key) + 16;
        break;
      }
    }
    try {
      transfer_with_retry(*net_, self_, lease.client, msg.wire_bytes,
                          config_.retry, "homestore.push");
    } catch (const NetworkError&) {
      // Push lost: keep last_pushed_version where it was, so the next push
      // ships a delta from the base this subscriber actually holds (or the
      // subscriber pulls when its monitor notices the staleness).
      facts_.push_lost.inc();
      obs::event(obs::Severity::kWarn, "homestore.push.lost",
                 {{"key", key},
                  {"client", net_->node_name(lease.client)},
                  {"mode", push_mode_name(msg.mode)}});
      continue;
    }
    switch (msg.mode) {
      case PushMode::kFullValue: facts_.push_full.inc(); break;
      case PushMode::kDelta:
        facts_.push_delta.inc();
        facts_.delta_bytes.observe(static_cast<double>(msg.wire_bytes));
        break;
      case PushMode::kNotifyOnly: facts_.push_notify.inc(); break;
    }
    lease.last_pushed_version = state.version;
    if (push_handler_) push_handler_(lease.client, msg);
  }
}

std::uint64_t HomeDataStore::version(const std::string& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? 0 : it->second.version;
}

const Bytes& HomeDataStore::value(const std::string& key) const {
  return state_of(key).current;
}

HomeDataStore::FetchResult HomeDataStore::fetch(const std::string& key,
                                                NodeId requester,
                                                std::uint64_t have_version) {
  const ObjectState& state = state_of(key);
  obs::Region span(obs::region_id<"homestore.fetch">(), obs::kTraced);
  span.set_node(net_->node_name(self_));
  span.tag("key", key);
  FetchResult result;
  result.version = state.version;
  result.request_bytes = request_size(key);
  transfer_with_retry(*net_, requester, self_, result.request_bytes,
                      config_.retry, "homestore.fetch");

  if (have_version == state.version) {
    // Up to date: tiny "no change" response.
    facts_.fetch_not_modified.inc();
    result.is_delta = false;
    result.response_bytes = 16;
    transfer_with_retry(*net_, self_, requester, result.response_bytes,
                        config_.retry, "homestore.fetch");
    return result;
  }

  auto it = state.deltas.find(have_version);
  if (it != state.deltas.end() &&
      static_cast<double>(it->second.encoded_size()) <
          config_.min_delta_ratio * static_cast<double>(state.current.size())) {
    facts_.fetch_delta.inc();
    result.is_delta = true;
    result.delta = it->second;
    result.response_bytes = it->second.encoded_size();
    facts_.delta_bytes.observe(
        static_cast<double>(result.response_bytes));
  } else {
    facts_.fetch_full.inc();
    result.is_delta = false;
    result.full_value = state.current;
    result.response_bytes = state.current.size();
  }
  transfer_with_retry(*net_, self_, requester, result.response_bytes,
                      config_.retry, "homestore.fetch");
  return result;
}

void HomeDataStore::subscribe(const std::string& key, NodeId client,
                              double duration, PushMode mode) {
  require(duration > 0.0, "HomeDataStore: lease duration must be positive");
  ObjectState& state = objects_[key];
  // Subscription handshake costs one small message.
  transfer_with_retry(*net_, client, self_, request_size(key) + 16,
                      config_.retry, "homestore.subscribe");
  const double expires = net_->now() + duration;
  for (auto& lease : state.leases) {
    if (lease.client == client) {
      lease.expires_at = expires;
      lease.mode = mode;
      return;
    }
  }
  Lease lease;
  lease.client = client;
  lease.expires_at = expires;
  lease.mode = mode;
  lease.last_pushed_version = 0;
  state.leases.push_back(lease);
}

void HomeDataStore::renew(const std::string& key, NodeId client,
                          double duration) {
  require(duration > 0.0, "HomeDataStore: lease duration must be positive");
  ObjectState& state = state_of(key);
  transfer_with_retry(*net_, client, self_, request_size(key) + 16,
                      config_.retry, "homestore.renew");
  for (auto& lease : state.leases) {
    if (lease.client == client) {
      lease.expires_at = net_->now() + duration;
      return;
    }
  }
  throw NotFound("HomeDataStore::renew: no lease for client on '" + key +
                 "'");
}

void HomeDataStore::cancel(const std::string& key, NodeId client) {
  ObjectState& state = state_of(key);
  transfer_with_retry(*net_, client, self_, request_size(key) + 16,
                      config_.retry, "homestore.cancel");
  auto& leases = state.leases;
  leases.erase(std::remove_if(leases.begin(), leases.end(),
                              [client](const Lease& l) {
                                return l.client == client;
                              }),
               leases.end());
}

bool HomeDataStore::has_lease(const std::string& key, NodeId client) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return false;
  for (const auto& lease : it->second.leases) {
    if (lease.client == client && lease.expires_at > net_->now()) return true;
  }
  return false;
}

std::size_t HomeDataStore::active_leases(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return 0;
  std::size_t n = 0;
  for (const auto& lease : it->second.leases) {
    if (lease.expires_at > net_->now()) ++n;
  }
  return n;
}

std::vector<std::uint64_t> HomeDataStore::retained_delta_bases(
    const std::string& key) const {
  const ObjectState& state = state_of(key);
  std::vector<std::uint64_t> bases;
  bases.reserve(state.deltas.size());
  for (const auto& [base, delta] : state.deltas) bases.push_back(base);
  return bases;
}

}  // namespace coda::dist
