#include "src/dist/sim_net.h"

#include <atomic>
#include <utility>
#include <vector>

#include "src/obs/event_log.h"
#include "src/util/random.h"

namespace coda::dist {

namespace {

// Distinct fault streams per link: drop / spike / collapse draws must be
// independent of each other or a high drop probability would correlate
// with spikes on the surviving messages.
constexpr std::uint64_t kDropSalt = 0xD509;
constexpr std::uint64_t kSpikeSalt = 0x591C3;
constexpr std::uint64_t kCollapseSalt = 0xC0111A;

}  // namespace

std::string failure_name(TransferResult::Failure failure) {
  switch (failure) {
    case TransferResult::Failure::kNone:
      return "none";
    case TransferResult::Failure::kDropped:
      return "dropped";
    case TransferResult::Failure::kPartitioned:
      return "partitioned";
    case TransferResult::Failure::kNodeDown:
      return "node_down";
  }
  return "unknown";
}

SimNet::SimNet(Config config) : config_(config) {
  require(config.latency_seconds >= 0.0 &&
              config.bandwidth_bytes_per_sec > 0.0,
          "SimNet: bad configuration");
  // Pre-register the fault/retry families so exported snapshots (and the
  // golden metrics-key test) list them even for fault-free runs.
  obs::counter("net.fault.dropped");
  obs::counter("net.fault.partitioned");
  obs::counter("net.fault.node_down");
  obs::counter("net.fault.latency_spikes");
  obs::counter("retry.attempts");
  obs::counter("retry.gave_up");
}

NodeId SimNet::add_node(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(!name.empty(), "SimNet: node name must be non-empty");
  for (const auto& existing : node_names_) {
    require(existing != name, "SimNet: duplicate node name '" + name + "'");
  }
  node_names_.push_back(name);
  return node_names_.size() - 1;
}

const std::string& SimNet::node_name(NodeId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(id);
  return node_names_[id];
}

TransferResult SimNet::transfer(NodeId from, NodeId to, std::size_t bytes,
                                const MessageHeader& header) {
  // Process-wide wire families, aggregated over every SimNet instance.
  static auto& transfer_seconds =
      obs::histogram("simnet.transfer.seconds",
                     obs::Histogram::exponential_bounds(1e-3, 4.0, 10));

  TransferResult result;
  double start_clock = 0.0;
  std::string from_name;
  std::string to_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    check_node(from);
    check_node(to);
    require(from != to, "SimNet: self-transfer");
    start_clock = clock_;
    from_name = node_names_[from];
    to_name = node_names_[to];

    // Partition / crash checks come before the drop draw and do NOT consume
    // a message index: a transfer attempted into a partition window leaves
    // the link's stochastic fault stream exactly where it was, so the fault
    // schedule past the window is independent of how often callers retried
    // into it.
    [&] {
      if (crashed_locked(from) || crashed_locked(to)) {
        result.failure = TransferResult::Failure::kNodeDown;
        fault_facts_.node_down.inc();
        return;
      }
      if (partitioned_locked(from, to)) {
        result.failure = TransferResult::Failure::kPartitioned;
        fault_facts_.partitioned.inc();
        return;
      }

      double latency = config_.latency_seconds;
      double bandwidth = config_.bandwidth_bytes_per_sec;
      if (faults_enabled_) {
        const std::size_t index = link_attempts_[{from, to}]++;
        double drop_p = faults_.drop_probability;
        auto it = link_drop_override_.find({from, to});
        if (it != link_drop_override_.end()) drop_p = it->second;
        if (drop_p > 0.0 &&
            fault_draw_locked(kDropSalt, from, to, index) < drop_p) {
          // The message left the sender and died in flight: charge the
          // one-way latency, count the attempt on the link, but no payload
          // bytes land.
          result.failure = TransferResult::Failure::kDropped;
          result.seconds = latency;
          auto& stats = links_[{from, to}];
          ++stats.messages;
          stats.simulated_seconds += latency;
          total_messages_.inc();
          total_seconds_.add(latency);
          fault_facts_.dropped.inc();
          return;
        }
        if (faults_.latency_spike_probability > 0.0 &&
            fault_draw_locked(kSpikeSalt, from, to, index) <
                faults_.latency_spike_probability) {
          latency += faults_.latency_spike_seconds;
          fault_facts_.latency_spikes.inc();
        }
        if (faults_.bandwidth_collapse_probability > 0.0 &&
            fault_draw_locked(kCollapseSalt, from, to, index) <
                faults_.bandwidth_collapse_probability) {
          bandwidth *= faults_.bandwidth_collapse_factor;
        }
      }

      const double seconds = latency + static_cast<double>(bytes) / bandwidth;
      result.seconds = seconds;
      auto& stats = links_[{from, to}];
      ++stats.messages;
      stats.bytes += bytes;
      stats.simulated_seconds += seconds;
      total_messages_.inc();
      total_bytes_.inc(bytes);
      total_seconds_.add(seconds);
      transfer_seconds.observe(seconds);
    }();
  }

  // Causal recording happens outside the fabric lock (the tracer and the
  // flight recorder have their own synchronisation).
  const std::string op = header.op.empty() ? "transfer" : header.op;
  if (header.trace.valid()) {
    auto& tracer = obs::Tracer::instance();
    tracer.anchor(header.trace.trace_id, tracer.now_seconds(), start_clock);
    std::vector<std::pair<std::string, std::string>> tags = {
        {"from", from_name},
        {"to", to_name},
        {"bytes", std::to_string(bytes)}};
    if (!result.ok()) tags.emplace_back("failure", failure_name(result.failure));
    tracer.record_span("net." + op, header.trace, to_name,
                       obs::ClockDomain::kLogical, start_clock,
                       result.seconds, std::move(tags));
  }
  if (!result.ok()) {
    obs::event(obs::Severity::kWarn,
               "net.fault." + failure_name(result.failure),
               {{"op", op},
                {"from", from_name},
                {"to", to_name},
                {"clock", std::to_string(start_clock)}});
  }
  return result;
}

void SimNet::set_faults(FaultConfig faults) {
  require(faults.drop_probability >= 0.0 && faults.drop_probability < 1.0,
          "SimNet: drop probability must lie in [0, 1)");
  require(faults.latency_spike_probability >= 0.0 &&
              faults.latency_spike_probability <= 1.0,
          "SimNet: spike probability must lie in [0, 1]");
  require(faults.latency_spike_seconds >= 0.0,
          "SimNet: spike latency must be non-negative");
  require(faults.bandwidth_collapse_probability >= 0.0 &&
              faults.bandwidth_collapse_probability <= 1.0,
          "SimNet: collapse probability must lie in [0, 1]");
  require(faults.bandwidth_collapse_factor > 0.0 &&
              faults.bandwidth_collapse_factor <= 1.0,
          "SimNet: collapse factor must lie in (0, 1]");
  std::lock_guard<std::mutex> lock(mutex_);
  faults_ = faults;
  faults_enabled_ = true;
}

void SimNet::set_link_drop_probability(NodeId from, NodeId to,
                                       double probability) {
  require(probability >= 0.0 && probability < 1.0,
          "SimNet: drop probability must lie in [0, 1)");
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(from);
  check_node(to);
  link_drop_override_[{from, to}] = probability;
  faults_enabled_ = true;
}

void SimNet::partition(NodeId from, NodeId to, double from_time,
                       double until_time) {
  require(until_time > from_time, "SimNet: empty partition window");
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(from);
  check_node(to);
  partitions_.push_back(Window{from, to, from_time, until_time});
}

void SimNet::heal_partitions() {
  std::lock_guard<std::mutex> lock(mutex_);
  partitions_.clear();
}

void SimNet::crash_node(NodeId id, double from_time, double until_time) {
  require(until_time > from_time, "SimNet: empty crash window");
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(id);
  crashes_.push_back(Window{id, id, from_time, until_time});
}

void SimNet::restart_node(NodeId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(id);
  for (auto it = crashes_.begin(); it != crashes_.end();) {
    it = it->from == id ? crashes_.erase(it) : it + 1;
  }
}

bool SimNet::node_up(NodeId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(id);
  return !crashed_locked(id);
}

double SimNet::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_;
}

void SimNet::advance(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(seconds >= 0.0, "SimNet: cannot rewind the clock");
  clock_ += seconds;
}

LinkStats SimNet::link(NodeId from, NodeId to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  check_node(from);
  check_node(to);
  auto it = links_.find({from, to});
  return it == links_.end() ? LinkStats{} : it->second;
}

LinkStats SimNet::total() const {
  LinkStats total;
  total.messages = total_messages_.value();
  total.bytes = total_bytes_.value();
  total.simulated_seconds = total_seconds_.value();
  return total;
}

SimNet::FaultStats SimNet::fault_stats() const {
  FaultStats out;
  out.dropped = fault_facts_.dropped.value();
  out.partitioned = fault_facts_.partitioned.value();
  out.node_down = fault_facts_.node_down.value();
  out.latency_spikes = fault_facts_.latency_spikes.value();
  return out;
}

void SimNet::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  links_.clear();
  fault_facts_.dropped.reset();
  fault_facts_.partitioned.reset();
  fault_facts_.node_down.reset();
  fault_facts_.latency_spikes.reset();
  total_messages_.reset();
  total_bytes_.reset();
  total_seconds_.reset();
}

bool SimNet::partitioned_locked(NodeId from, NodeId to) const {
  for (const auto& w : partitions_) {
    if (w.from == from && w.to == to && clock_ >= w.start && clock_ < w.end) {
      return true;
    }
  }
  return false;
}

bool SimNet::crashed_locked(NodeId id) const {
  for (const auto& w : crashes_) {
    if (w.from == id && clock_ >= w.start && clock_ < w.end) return true;
  }
  return false;
}

// Stateless mixing: a link's fault stream is a pure function of (seed,
// salt, from, to, message index).
double SimNet::fault_draw_locked(std::uint64_t salt, NodeId from, NodeId to,
                                 std::size_t index) const {
  std::uint64_t h = mix64(faults_.seed ^ salt);
  h = mix64(h ^ (static_cast<std::uint64_t>(from) + 1));
  h = mix64(h ^ ((static_cast<std::uint64_t>(to) + 1) << 20));
  h = mix64(h ^ static_cast<std::uint64_t>(index));
  return unit(h);
}

obs::MetricScope& node_scope(const SimNet* net, NodeId node) {
  require(net != nullptr, "SimNet: null network");
  return obs::MetricScope::for_node(net->node_name(node));
}

}  // namespace coda::dist
