// Always-on region profiler (observability layer, DESIGN.md §15). Its one
// timed scope, obs::Region, maintains a per-thread call-path stack and
// accumulates call counts and total nanoseconds into a per-thread arena —
// no locks on the hot path (two steady-clock reads plus a few relaxed
// atomic operations per scope). A Region opens a trace span only where its
// site asks (kTraced); PROF_SCOPE("name") is the one-line, span-free
// Region for hot paths. Arenas are merged at export time into
//   * folded-stack ("collapsed") text consumable by flamegraph.pl /
//     speedscope — the `--profile-folded` bench flag and the
//     CODA_PROFILE_DUMP environment variable both emit it;
//   * a flat per-region table (the `coda_top` view) with self time,
//     derived kernel GF/s, and deterministic (calls desc, name) ranking;
//   * `prof.<region>.calls` / `prof.<region>.self_ns` counters published
//     into a node's MetricScope shard AND the process-wide registry
//     (publish_node()), so profile summaries ride TelemetryReporter
//     snapshots and the TelemetryCollector can render a fleet-wide
//     hot-path table.
//
// Node attribution: a top-level scope keys its call tree by the thread's
// ambient obs::Tracer::current_node() (maintained by NodeScope /
// ContextScope), so one process running many simulated clients keeps one
// profile per client. Nested scopes inherit the root's node.
//
// Determinism rules (DESIGN.md §15): regions wrap whole phases
// (lookup-plus-maybe-compute), never cache-miss-gated branches, so the
// region set and call counts of a seeded run are reproducible while the
// recorded times vary. Exports iterate sorted and rank by (calls desc,
// name asc) — never by time.
//
// Thread safety: a PathNode's calls/total_ns are written only by the
// owning thread (relaxed load+store, no RMW); exporters read them
// relaxed. Tree edges are published via an atomic sibling list
// (store-release by the owner, load-acquire by readers). reset() is only
// safe while no scopes are live — the same contract as Tracer::clear().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace coda::obs::prof {

/// Interned region identifier; stable for the process lifetime.
using RegionId = std::uint32_t;

/// Interns `name` (idempotent) and returns its id. Called once per call
/// site (PROF_SCOPE) or once per name (obs::region_id), never per scope.
RegionId intern(const std::string& name);

/// The name behind an interned id (throws InvalidArgument on unknown id).
const std::string& region_name(RegionId id);

/// One merged root→leaf call path, aggregated over every thread arena.
struct PathStat {
  std::string node;               ///< "" = the ambient process
  std::vector<std::string> path;  ///< region names, root first
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  ///< wall time inside the leaf region
  std::uint64_t self_ns = 0;   ///< total minus time in child regions
};

/// One merged flat region row (summed over paths, threads, and nodes).
/// total_ns assumes non-recursive regions: a region nested under itself
/// would double-count total (self_ns stays exact either way).
struct RegionStat {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Every call path with calls > 0, merged across threads, sorted by
/// (node, path) — byte-deterministic ordering for seeded runs.
std::vector<PathStat> merged_paths();

/// merged_paths() of each thread arena on its own, in arena creation order
/// (an arena is one thread's, or a thread's after an earlier one exited):
/// the per-thread view behind a coverage check that fails on one thread.
std::vector<std::vector<PathStat>> thread_paths();

/// Flat per-region rollup of merged_paths(), ranked by (calls desc, name
/// asc) — the deterministic hot-path ordering (DESIGN.md §15).
std::vector<RegionStat> region_table();

/// Folded-stack ("collapsed") text: one line per call path,
/// "node;root;child;leaf self_ns" (the node frame is omitted for the
/// ambient ""), sorted by stack. Zero-self paths are kept as long as they
/// were called, so the stack *set* of a seeded run is deterministic even
/// though the sample values are wall-clock times.
std::string folded();

/// Writes folded() to `path` (throws coda::Error on I/O error).
void write_folded(const std::string& path);

/// Human-readable `coda_top` view: the top `max_rows` regions by
/// (calls desc, name), with calls, self/total time, and — when
/// kernel.gemm.{flops,seconds} are non-empty — the derived GEMM GF/s line
/// (every GEMM's flops over every `kernel.gemm` region's seconds).
std::string report(std::size_t max_rows = 24);

/// Publishes `node`'s profile as counter increments since the last
/// publish: prof.<region>.calls and prof.<region>.self_ns land in the
/// node's MetricScope shard AND the process-wide registry (equal
/// increments, preserving the global-equals-sum-of-shards telemetry
/// invariant). Call at deterministic flush points (run_cooperative_fleet
/// does, just before each TelemetryReporter flush). No-op for "".
void publish_node(const std::string& node);

/// publish_node() for every node that has profiled work.
void publish_all();

/// Thread arenas created so far. A thread's arena returns to a free list
/// when the thread exits and the next thread to profile reuses it, so this
/// is the peak number of threads that profiled at once, not the number
/// ever started.
std::size_t arena_count();

/// True when no region has any recorded calls (e.g. right after reset()).
bool empty();

/// Zeroes every accumulator and the publish baselines; the interned
/// regions and arena structure survive (references stay valid). Only safe
/// while no Region is live on another thread. obs::reset_all() calls
/// this.
void reset();

}  // namespace coda::obs::prof

namespace coda::obs {

namespace detail {
template <std::size_t N>
struct RegionName {
  constexpr RegionName(const char (&name)[N]) { std::copy_n(name, N, chars); }
  char chars[N];
};
}  // namespace detail

/// The region id of `Name`, interned once per name (a function-local
/// static per template instance).
template <detail::RegionName Name>
prof::RegionId region_id() {
  static const prof::RegionId id = prof::intern(Name.chars);
  return id;
}

/// A fold phase: its Region opens `eval.fold.prepare` / `.fit` / `.score`
/// and charges the ambient candidate's cost row (costs.h) on close.
enum class Phase : std::uint8_t { kPrepare = 0, kFit = 1, kScore = 2 };

/// Asks a Region to open a trace span under the region's name too.
struct Traced {};
inline constexpr Traced kTraced{};

/// The one RAII timed scope. It pushes its region onto the calling
/// thread's call path and, on close, accumulates one call and the elapsed
/// time. A traced region also opens a span of the same name under the
/// thread's ambient context (no ambient trace starts a new one); a phase
/// region also charges the ambient candidate. Region, span and cost row
/// share one pair of steady-clock reads.
class Region {
 public:
  explicit Region(prof::RegionId region);
  Region(prof::RegionId region, Traced);
  explicit Region(Phase phase);
  ~Region() {
    if (node_ != nullptr) stop();
  }

  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// Closes the scope now and returns its elapsed seconds; the destructor
  /// is then a no-op. Call at most once.
  double stop();

  /// The span half (no-ops on an untraced region, whose context() is the
  /// thread's ambient one): the context to hand to children (tasks,
  /// messages), a key/value tag on the record, and the node attribution
  /// (default: the thread's NodeScope).
  TraceContext context() const;
  void tag(std::string key, std::string value);
  void set_node(std::string node);

 private:
  void* node_ = nullptr;  // PathNode* of this scope
  void* prev_ = nullptr;  // PathNode* of the enclosing scope (may be null)
  std::chrono::steady_clock::time_point start_;
  std::optional<Phase> phase_;
  std::optional<SpanRecord> span_;  // the span half, recorded by stop()
  std::uint64_t prev_trace_ = 0;    // the thread's trace before the span
};

}  // namespace coda::obs

// Span-free Region with function-local static interning. Usage:
//   void hot_path() {
//     PROF_SCOPE("nn.loss");
//     ...
//   }
#define CODA_PROF_CONCAT2(a, b) a##b
#define CODA_PROF_CONCAT(a, b) CODA_PROF_CONCAT2(a, b)
#define PROF_SCOPE(name)                                              \
  static const ::coda::obs::prof::RegionId CODA_PROF_CONCAT(          \
      coda_prof_region_, __LINE__) = ::coda::obs::prof::intern(name); \
  const ::coda::obs::Region CODA_PROF_CONCAT(coda_prof_scope_,        \
                                             __LINE__)(               \
      CODA_PROF_CONCAT(coda_prof_region_, __LINE__))
