#include "src/dist/client_cache.h"

#include "src/obs/obs.h"

namespace coda::dist {

ClientCache::ClientCache(SimNet* net, NodeId self, HomeDataStore* home)
    : net_(net), self_(self), home_(home), facts_{node_scope(net, self)} {
  require(home != nullptr, "ClientCache: null dependency");
  require(self != home->node_id(),
          "ClientCache: client and home store must be distinct nodes");
}

const Bytes& ClientCache::get(const std::string& key) {
  Entry& entry = entries_[key];
  facts_.pulls.inc();
  obs::Region span(obs::region_id<"clientcache.pull">(), obs::kTraced);
  span.tag("key", key);
  auto result = home_->fetch(key, self_, entry.version);
  facts_.bytes_received.inc(result.response_bytes);
  if (result.version == entry.version) {
    ++stats_.not_modified_responses;
    return entry.value;
  }
  if (result.is_delta) {
    ++stats_.delta_responses;
    const std::size_t saved = home_->value(key).size() - result.response_bytes;
    facts_.bytes_saved.inc(saved);
    entry.value = apply_delta(entry.value, result.delta);
  } else {
    ++stats_.full_responses;
    entry.value = std::move(result.full_value);
  }
  entry.version = result.version;
  return entry.value;
}

const Bytes& ClientCache::cached(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw NotFound("ClientCache: '" + key + "' not cached");
  }
  return it->second.value;
}

std::uint64_t ClientCache::version(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.version;
}

std::uint64_t ClientCache::staleness(const std::string& key) const {
  const std::uint64_t home_version = home_->version(key);
  const std::uint64_t local = version(key);
  return home_version > local ? home_version - local : 0;
}

void ClientCache::subscribe(const std::string& key, double duration,
                            PushMode mode) {
  home_->subscribe(key, self_, duration, mode);
}

void ClientCache::renew(const std::string& key, double duration) {
  home_->renew(key, self_, duration);
}

void ClientCache::cancel(const std::string& key) { home_->cancel(key, self_); }

void ClientCache::on_push(const PushMessage& message) {
  Entry& entry = entries_[message.key];
  facts_.bytes_received.inc(message.wire_bytes);
  // Replay guard: a push can arrive after a pull already advanced this
  // entry past it (lease expired mid-update -> monitor fell back to pull,
  // or a delayed push raced the response). Applying it again would
  // double-apply a delta or roll the value back — drop it instead.
  // Notify-only messages are exempt: they carry no payload and a stale
  // notification is harmless (notified_version only ever ratchets up).
  if (message.mode != PushMode::kNotifyOnly &&
      message.version <= entry.version) {
    facts_.push_stale.inc();
    obs::event(obs::Severity::kWarn, "clientcache.push.stale",
               {{"key", message.key},
                {"pushed_version", std::to_string(message.version)},
                {"have_version", std::to_string(entry.version)}});
    return;
  }
  switch (message.mode) {
    case PushMode::kFullValue:
      facts_.push_full.inc();
      entry.value = message.full_value;
      entry.version = message.version;
      break;
    case PushMode::kDelta: {
      facts_.push_delta.inc();
      facts_.delta_bytes.observe(static_cast<double>(message.wire_bytes));
      if (message.delta.base_version != entry.version) {
        // Base mismatch (e.g. missed push): fall back to a pull.
        ++stats_.delta_fallback_fetches;
        get(message.key);
        return;
      }
      const std::size_t saved =
          message.delta.target_size > message.wire_bytes
              ? static_cast<std::size_t>(message.delta.target_size) -
                    message.wire_bytes
              : 0;
      facts_.bytes_saved.inc(saved);
      entry.value = apply_delta(entry.value, message.delta);
      entry.version = message.version;
      break;
    }
    case PushMode::kNotifyOnly:
      facts_.push_notify.inc();
      if (message.version > entry.notified_version) {
        entry.notified_version = message.version;
      }
      break;
  }
}

std::uint64_t ClientCache::notified_version(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.notified_version;
}

ClientCache::Stats ClientCache::stats() const {
  Stats out = stats_;
  out.pulls = facts_.pulls.value();
  out.pushes_full = facts_.push_full.value();
  out.pushes_delta = facts_.push_delta.value();
  out.notifications = facts_.push_notify.value();
  out.stale_pushes = facts_.push_stale.value();
  out.bytes_received = facts_.bytes_received.value();
  out.bytes_saved_by_delta = facts_.bytes_saved.value();
  return out;
}

}  // namespace coda::dist
