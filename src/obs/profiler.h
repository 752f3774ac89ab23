// Always-on region profiler (observability layer, DESIGN.md §15): a
// PROF_SCOPE("name") RAII region maintains a per-thread call-path stack
// and accumulates call counts and total nanoseconds into a per-thread
// arena — no locks on the hot path (two steady-clock reads plus a few
// relaxed atomic operations per scope). Arenas are merged at export time
// into
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

#include <cstdint>
#include <string>
#include <vector>

namespace coda::obs::prof {

/// Interned region identifier; stable for the process lifetime.
using RegionId = std::uint32_t;

/// Interns `name` (idempotent) and returns its id. Called once per
/// PROF_SCOPE call site via a function-local static.
RegionId intern(const std::string& name);

/// The name behind an interned id (throws InvalidArgument on unknown id).
const std::string& region_name(RegionId id);

/// RAII region: pushes the region onto the calling thread's call path on
/// construction, accumulates elapsed time and one call on destruction.
/// Use the PROF_SCOPE macro rather than constructing Scope directly.
class Scope {
 public:
  explicit Scope(RegionId region);
  ~Scope() {
    if (node_ != nullptr) stop();
  }

  /// Closes the region now and returns the nanoseconds it was charged
  /// (the one clock read pair callers can reuse); the destructor is then
  /// a no-op. Call at most once.
  std::uint64_t stop();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void* node_ = nullptr;  // PathNode* of this scope
  void* prev_ = nullptr;  // PathNode* of the enclosing scope (may be null)
  std::uint64_t start_ns_ = 0;
};

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
/// (calls desc, name), with calls, self/total time, and — when the
/// kernel.gemm.{timed_flops,seconds} metrics are non-empty — the derived
/// GEMM GF/s line (timed flops over timed seconds).
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

/// True when no region has any recorded calls (e.g. right after reset()).
bool empty();

/// Zeroes every accumulator and the publish baselines; the interned
/// regions and arena structure survive (references stay valid). Only safe
/// while no Scope is live on another thread. obs::reset_all() calls this.
void reset();

}  // namespace coda::obs::prof

// Function-local static interning + RAII scope. Usage:
//   void hot_path() {
//     PROF_SCOPE("eval.fold");
//     ...
//   }
#define CODA_PROF_CONCAT2(a, b) a##b
#define CODA_PROF_CONCAT(a, b) CODA_PROF_CONCAT2(a, b)
#define PROF_SCOPE(name)                                              \
  static const ::coda::obs::prof::RegionId CODA_PROF_CONCAT(          \
      coda_prof_region_, __LINE__) = ::coda::obs::prof::intern(name); \
  const ::coda::obs::prof::Scope CODA_PROF_CONCAT(coda_prof_scope_,   \
                                                  __LINE__)(          \
      CODA_PROF_CONCAT(coda_prof_region_, __LINE__))
