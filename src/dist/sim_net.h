// Simulated network (substitution for the paper's geographically
// distributed deployment, DESIGN.md §2): named nodes, per-transfer byte and
// message accounting, a configurable latency/bandwidth cost model, and a
// logical clock that benches/tests advance explicitly. Everything the
// Section III protocols claim (bytes saved by deltas, staleness under
// pull vs push) is observable from these counters deterministically.
//
// Fault model (DESIGN.md §9): per-link message drops, latency spikes and
// bandwidth collapses are drawn deterministically from a seed and the
// link's own message counter, so each link's fault sequence is
// bit-reproducible regardless of thread interleaving elsewhere in the
// fabric. Directed partitions and node crashes are windows on the logical
// clock. transfer() never throws on a fault — it reports the failure in
// its TransferResult and the caller (usually via transfer_with_retry)
// decides whether to back off, degrade, or give up.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace coda::dist {

using NodeId = std::size_t;

/// Causal metadata travelling with a transfer — the wire-format stand-in
/// for a real RPC header. When `trace` is valid the fabric records a
/// logical-clock span ("net.<op>", attributed to the receiving node)
/// parented under it, and anchors the trace's steady/logical alignment.
struct MessageHeader {
  obs::TraceContext trace;
  std::string op;  ///< short verb, e.g. "darr.fetch" ("" = "transfer")
};

/// Traffic counters for one directed node pair (and, via total(), for a
/// whole fabric — a point-in-time view of the fabric's own unregistered
/// counters).
struct LinkStats {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  double simulated_seconds = 0.0;  ///< sum of per-message latency + tx time
};

/// Outcome of one transfer() call. `seconds` is the simulated time the
/// attempt cost: full latency + tx time on success, the one-way latency on
/// a drop (the message travelled and was lost), and 0 for partitions and
/// crashed nodes (nothing was ever sent).
struct TransferResult {
  enum class Failure : std::uint8_t {
    kNone = 0,
    kDropped,      ///< stochastic per-link loss
    kPartitioned,  ///< directed partition window covers now()
    kNodeDown,     ///< either endpoint is inside a crash window
  };

  Failure failure = Failure::kNone;
  double seconds = 0.0;

  bool ok() const { return failure == Failure::kNone; }
};

std::string failure_name(TransferResult::Failure failure);

/// The simulated network fabric.
class SimNet {
 public:
  struct Config {
    double latency_seconds = 0.020;      ///< per message (WAN-ish RTT/2)
    double bandwidth_bytes_per_sec = 1e6;  ///< 1 MB/s WAN link
  };

  /// Stochastic fault knobs, all off by default. Draws for message i on a
  /// link are pure functions of (seed, from, to, i): the schedule each
  /// link sees is fixed by the seed alone.
  struct FaultConfig {
    std::uint64_t seed = 42;
    double drop_probability = 0.0;             ///< per message, per link
    double latency_spike_probability = 0.0;    ///< per delivered message
    double latency_spike_seconds = 0.25;       ///< added on a spike
    double bandwidth_collapse_probability = 0.0;  ///< per delivered message
    double bandwidth_collapse_factor = 0.05;   ///< fraction of nominal bw
  };

  SimNet() : SimNet(Config{}) {}
  explicit SimNet(Config config);

  /// Registers a node; names must be unique.
  NodeId add_node(const std::string& name);

  std::size_t n_nodes() const { return node_names_.size(); }
  const std::string& node_name(NodeId id) const;

  /// Accounts one message of `bytes` from -> to. Does NOT advance the
  /// clock (concurrent transfers are allowed to overlap). With faults
  /// enabled the attempt can fail — check TransferResult::ok().
  /// Fault injections are logged to the flight recorder; a valid
  /// `header.trace` additionally records a causal network span.
  TransferResult transfer(NodeId from, NodeId to, std::size_t bytes,
                          const MessageHeader& header = {});

  /// Enables (or replaces) the stochastic fault model.
  void set_faults(FaultConfig faults);

  /// Per-link drop probability override (wins over FaultConfig's default).
  void set_link_drop_probability(NodeId from, NodeId to, double probability);

  /// Blocks from -> to transfers while the logical clock lies in
  /// [from_time, until_time). Pass an infinite until_time for an
  /// open-ended partition; heal_partitions() lifts every window.
  void partition(NodeId from, NodeId to, double from_time, double until_time);
  void heal_partitions();

  /// Fails every transfer touching `id` while the clock lies in
  /// [from_time, until_time); restart_node() clears the node's windows.
  void crash_node(NodeId id, double from_time, double until_time);
  void restart_node(NodeId id);

  /// True when no crash window covers `id` at the current clock.
  bool node_up(NodeId id) const;

  /// The logical clock, in simulated seconds.
  double now() const;

  /// Advances the logical clock (lease expiry and fault windows are driven
  /// by this; retry backoff waits are charged here too).
  void advance(double seconds);

  /// Counters for one directed pair (copied; safe across threads).
  LinkStats link(NodeId from, NodeId to) const;

  /// Aggregate counters over all links.
  LinkStats total() const;

  /// Fault counters since construction / reset_stats().
  struct FaultStats {
    std::size_t dropped = 0;
    std::size_t partitioned = 0;
    std::size_t node_down = 0;
    std::size_t latency_spikes = 0;
  };
  FaultStats fault_stats() const;

  /// Resets counters (not the clock, not the fault configuration).
  void reset_stats();

 private:
  struct Window {
    NodeId from = 0;  // partition: source; crash: the node (to unused)
    NodeId to = 0;
    double start = 0.0;
    double end = 0.0;
  };

  void check_node(NodeId id) const {
    require(id < node_names_.size(), "SimNet: unknown node id");
  }
  bool partitioned_locked(NodeId from, NodeId to) const;
  bool crashed_locked(NodeId id) const;
  /// Uniform [0,1) draw for fault stream `salt` of message `index` on the
  /// directed link from -> to. Pure function of the fault seed.
  double fault_draw_locked(std::uint64_t salt, NodeId from, NodeId to,
                           std::size_t index) const;

  Config config_;
  mutable std::mutex mutex_;  // transfer() is called from evaluator threads
  double clock_ = 0.0;
  // A deque: node_name() hands out references that callers read after the
  // lock is released, so a concurrent add_node() must never move them.
  std::deque<std::string> node_names_;
  std::map<std::pair<NodeId, NodeId>, LinkStats> links_;
  bool faults_enabled_ = false;
  FaultConfig faults_;
  std::map<std::pair<NodeId, NodeId>, double> link_drop_override_;
  std::map<std::pair<NodeId, NodeId>, std::size_t> link_attempts_;
  std::vector<Window> partitions_;
  std::vector<Window> crashes_;
  // The `net.fault.*` facts; the own counts are the fault_stats() view.
  struct FaultFacts {
    obs::FactCounter dropped{"net.fault.dropped"};
    obs::FactCounter partitioned{"net.fault.partitioned"};
    obs::FactCounter node_down{"net.fault.node_down"};
    obs::FactCounter latency_spikes{"net.fault.latency_spikes"};
  };
  FaultFacts fault_facts_;
  // Fabric totals: the own counts are the total() view, the process-wide
  // `simnet.*` families sum every fabric; per-link detail stays in links_.
  obs::FactCounter total_messages_{"simnet.messages"};
  obs::FactCounter total_bytes_{"simnet.bytes_sent"};
  obs::Gauge total_seconds_;
};

/// `node`'s metric shard on `net`, for handles bound in a member
/// initializer: checks `net` first, since initializers run before the
/// constructor body's own checks.
obs::MetricScope& node_scope(const SimNet* net, NodeId node);

}  // namespace coda::dist
