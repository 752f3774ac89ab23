// Causal span tracer (observability layer): a span records name,
// start/duration, and parent linkage. Steady-clock spans are the span half
// of a traced obs::Region (profiler.h), so each carries its profiler
// region's name and clock reads; there is no span scope of its own.
// Within one thread, nesting is automatic (a thread-local current-span
// id); across threads and across
// the simulated network, a TraceContext {trace_id, parent_span_id} is
// carried explicitly (thread-pool tasks via ContextScope, SimNet messages
// via a message header), so one cooperative search yields one connected
// span tree per client — client compute, network transfers, repository
// work and retries all reachable from the root span.
//
// Dual clocks (DESIGN.md §10): compute spans are timestamped on the
// steady clock, network spans on the SimNet logical clock. Each trace may
// record one alignment anchor (a steady/logical instant observed
// together) so exporters can place both domains on a single timeline.
//
// Finished spans land in a fixed-size ring buffer — old spans are
// overwritten (counted in `obs.trace.dropped`), recording never blocks on
// consumers and never allocates unboundedly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace coda::obs {

class MetricScope;  // metrics.h; NodeScope/ContextScope install one

/// Which clock a span's start/duration were measured on.
enum class ClockDomain : std::uint8_t {
  kSteady = 0,   ///< process steady clock, seconds since the tracer epoch
  kLogical = 1,  ///< SimNet logical clock, simulated seconds
};

/// Causal context carried across threads and (simulated) network message
/// headers. A zero trace_id means "no trace": spans started under it open
/// a fresh trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// A finished span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span
  std::uint64_t trace_id = 0;   ///< spans with equal trace_id form one tree
  std::string name;
  /// Logical node the work ran on (SimNet node name); "" = the ambient
  /// process. Exporters map nodes to processes (pids).
  std::string node;
  std::uint64_t thread = 0;  ///< hashed std::thread::id (steady spans)
  ClockDomain clock = ClockDomain::kSteady;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Ring-buffer sink for finished spans.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 65536);

  /// The process-wide tracer used by instrumentation.
  static Tracer& instance();

  std::uint64_t next_id() {
    return id_source_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t next_trace_id() {
    return trace_source_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Seconds since this tracer's epoch (steady clock), now or at `t`.
  double now_seconds() const {
    return seconds_at(std::chrono::steady_clock::now());
  }
  double seconds_at(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Records a finished span, stamped with the calling thread.
  void record(SpanRecord span);

  /// Allocates an id and records an already-finished span in one call —
  /// used for logical-clock spans (network transfers) whose lifetime is
  /// not a C++ scope. Returns the span's id.
  std::uint64_t record_span(
      std::string name, const TraceContext& parent, std::string node,
      ClockDomain clock, double start_seconds, double duration_seconds,
      std::vector<std::pair<std::string, std::string>> tags = {});

  /// Records the trace's steady/logical alignment anchor: a pair of
  /// timestamps observed at the same instant. First write per trace wins.
  struct Anchor {
    double steady_seconds = 0.0;
    double logical_seconds = 0.0;
  };
  void anchor(std::uint64_t trace_id, double steady_seconds,
              double logical_seconds);
  std::map<std::uint64_t, Anchor> anchors() const;

  /// Retained spans, oldest first.
  std::vector<SpanRecord> snapshot() const;

  /// Total spans ever recorded / overwritten by ring wrap-around.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Clears retained spans, anchors, and the id/trace-id sources (so
  /// seed-deterministic tests replay identical ids). Only safe while no
  /// spans are live on other threads.
  void clear();

  /// The calling thread's innermost live span id (0 = none). Traced
  /// regions maintain this; exposed so manual instrumentation can interoperate.
  static std::uint64_t current_span();
  static void set_current_span(std::uint64_t id);

  /// The calling thread's trace id (0 = none) and ambient context.
  static std::uint64_t current_trace();
  static void set_current_trace(std::uint64_t id);
  static TraceContext current_context() {
    return TraceContext{current_trace(), current_span()};
  }

  /// The calling thread's node attribution ("" = ambient process).
  /// NodeScope maintains this.
  static const std::string& current_node();

 private:
  friend class NodeScope;

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> id_source_{0};
  std::atomic<std::uint64_t> trace_source_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t next_slot_ = 0;
  std::uint64_t total_recorded_ = 0;
  std::map<std::uint64_t, Anchor> anchors_;
};

/// RAII cross-thread continuation: adopts `ctx` (and optionally a node
/// attribution) as the calling thread's ambient trace context, restoring
/// the previous state on destruction. Used when handing work to a thread
/// pool or timer wheel so the task's spans stay parented under the
/// submitting span.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx);
  ContextScope(const TraceContext& ctx, std::string node);
  ~ContextScope();

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  std::uint64_t prev_trace_;
  std::uint64_t prev_span_;
  bool node_set_ = false;
  std::string prev_node_;
  MetricScope* prev_scope_ = nullptr;
};

/// RAII node attribution: spans and events recorded by this thread while
/// the scope is live carry `node` (e.g. the SimNet node name of the
/// simulated client driving this thread), and the node's MetricScope
/// becomes the thread's ambient shard for count_scoped()/observe_scoped().
class NodeScope {
 public:
  explicit NodeScope(std::string node);
  ~NodeScope();

  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;

 private:
  std::string prev_;
  MetricScope* prev_scope_ = nullptr;
};

}  // namespace coda::obs
