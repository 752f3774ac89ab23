#include "src/obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/costs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace coda::obs::prof {

namespace {

// ---------------------------------------------------------------------------
// Region interning. Names live in a deque so region_name() references stay
// valid forever; the mutex is only taken at intern time (once per call
// site or name, via a function-local static) and at lookup.

struct Regions {
  std::mutex mutex;
  std::unordered_map<std::string, RegionId> ids;
  std::deque<std::string> names;  // index == RegionId
};

Regions& regions() {
  static Regions* r = new Regions();  // leaked: outlives arena teardown
  return *r;
}

// ---------------------------------------------------------------------------
// Per-thread call-path tries. Every PathNode belongs to exactly one arena
// and is *mutated* only by that arena's owning thread; the atomics exist
// so exporters on other threads can read without locks:
//   * calls / total_ns: owner does relaxed load+store (no RMW needed —
//     single writer), readers load relaxed. Counts are monotone, so a
//     racy read is merely slightly stale, never torn.
//   * first_child / the arena's first_root: owner publishes a fully
//     constructed node with store-release; readers walk with
//     load-acquire. next_sibling is written before the release store and
//     immutable afterwards.
// pub_calls / pub_self_ns are the publish baselines — touched only under
// the global publish mutex, never by the owner.

struct PathNode {
  PathNode(RegionId r, std::string node, PathNode* p)
      : region(r), node_name(std::move(node)), parent(p) {}

  const RegionId region;
  const std::string node_name;  // roots: ambient node attribution; else ""
  PathNode* const parent;       // nullptr for roots

  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};

  std::atomic<PathNode*> first_child{nullptr};
  PathNode* next_sibling = nullptr;

  std::uint64_t pub_calls = 0;
  std::uint64_t pub_self_ns = 0;
};

struct ThreadArena {
  std::atomic<PathNode*> first_root{nullptr};
  // Owner-private: root lookup by (node attribution, region). Exporters
  // never touch it — they walk the atomic links instead.
  std::map<std::pair<std::string, RegionId>, PathNode*> root_index;
  std::deque<PathNode> owned;  // owner-only append; nodes never move
};

struct Arenas {
  std::mutex mutex;           // guards the arena lists and publishing
  std::deque<ThreadArena> list;  // arenas live for the process
  // Arenas whose thread has exited, reused by the next thread that
  // profiles; their nodes and totals stay where exporters read them.
  std::vector<ThreadArena*> free;
};

Arenas& arenas() {
  static Arenas* a = new Arenas();  // leaked: threads may outlive main
  return *a;
}

struct ThreadState {
  ThreadArena* arena = nullptr;
  PathNode* current = nullptr;
};

thread_local ThreadState t_state;

// Hands the thread's arena back to the free list at thread exit. Kept
// apart from t_state, which stays trivially destructible so the Region
// hot path reads it without a thread-exit registration check.
struct ArenaLease {
  ThreadArena* arena = nullptr;
  ~ArenaLease() {
    if (arena == nullptr) return;
    Arenas& a = arenas();
    std::lock_guard<std::mutex> lock(a.mutex);
    a.free.push_back(arena);
    t_state.arena = nullptr;
    t_state.current = nullptr;
  }
};

thread_local ArenaLease t_lease;

ThreadArena& acquire_arena() {
  if (t_state.arena == nullptr) {
    Arenas& a = arenas();
    std::lock_guard<std::mutex> lock(a.mutex);
    if (a.free.empty()) {
      a.list.emplace_back();
      t_state.arena = &a.list.back();
    } else {
      t_state.arena = a.free.back();
      a.free.pop_back();
    }
    t_lease.arena = t_state.arena;
  }
  return *t_state.arena;
}

PathNode* find_child(PathNode* parent, RegionId region) {
  for (PathNode* c = parent->first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling) {
    if (c->region == region) return c;
  }
  return nullptr;
}

// Owner-only: appends a child and publishes it for concurrent readers.
PathNode* add_child(ThreadArena& arena, PathNode* parent, RegionId region) {
  arena.owned.emplace_back(region, std::string(), parent);
  PathNode* node = &arena.owned.back();
  node->next_sibling = parent->first_child.load(std::memory_order_relaxed);
  parent->first_child.store(node, std::memory_order_release);
  return node;
}

PathNode* root_for(ThreadArena& arena, const std::string& node_name,
                   RegionId region) {
  const auto key = std::make_pair(node_name, region);
  const auto it = arena.root_index.find(key);
  if (it != arena.root_index.end()) return it->second;
  arena.owned.emplace_back(region, node_name, nullptr);
  PathNode* node = &arena.owned.back();
  node->next_sibling = arena.first_root.load(std::memory_order_relaxed);
  arena.first_root.store(node, std::memory_order_release);
  arena.root_index.emplace(key, node);
  return node;
}

// ---------------------------------------------------------------------------
// Export-side tree walking. Snapshots are approximate under concurrent
// mutation (a racing scope lands wholly in the next snapshot); at quiesced
// points (bench export, fleet flush, test assertions) they are exact.

template <typename Fn>
void for_each_node(const ThreadArena& arena, Fn&& fn) {
  // Iterative DFS; `fn(root, node)` for every published node.
  for (PathNode* root = arena.first_root.load(std::memory_order_acquire);
       root != nullptr; root = root->next_sibling) {
    std::vector<PathNode*> stack{root};
    while (!stack.empty()) {
      PathNode* node = stack.back();
      stack.pop_back();
      fn(root, node);
      for (PathNode* c = node->first_child.load(std::memory_order_acquire);
           c != nullptr; c = c->next_sibling) {
        stack.push_back(c);
      }
    }
  }
}

std::uint64_t children_total_ns(const PathNode& node) {
  std::uint64_t sum = 0;
  for (PathNode* c = node.first_child.load(std::memory_order_acquire);
       c != nullptr; c = c->next_sibling) {
    sum += c->total_ns.load(std::memory_order_relaxed);
  }
  return sum;
}

// Self time of one PathNode, clamped at zero: while a scope is live its
// time has not yet landed in the parent's total, so a mid-flight snapshot
// can transiently observe children > parent.
std::uint64_t self_ns_of(const PathNode& node) {
  const std::uint64_t total = node.total_ns.load(std::memory_order_relaxed);
  const std::uint64_t children = children_total_ns(node);
  return total > children ? total - children : 0;
}

std::vector<std::string> path_names(const PathNode& leaf) {
  std::vector<std::string> names;
  for (const PathNode* n = &leaf; n != nullptr; n = n->parent) {
    names.push_back(region_name(n->region));
  }
  std::reverse(names.begin(), names.end());
  return names;
}

std::string format_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  }
  return buf;
}

// Called paths keyed by (node, path); std::map keeps the (node, path)
// ordering contract for free.
using PathMap =
    std::map<std::pair<std::string, std::vector<std::string>>, PathStat>;

// Adds `arena`'s called paths into `merged`. Caller holds the arenas lock.
void merge_arena(const ThreadArena& arena, PathMap& merged) {
  for_each_node(arena, [&merged](PathNode* root, PathNode* node) {
    const std::uint64_t calls = node->calls.load(std::memory_order_relaxed);
    if (calls == 0) return;
    PathStat& agg = merged[{root->node_name, path_names(*node)}];
    agg.calls += calls;
    agg.total_ns += node->total_ns.load(std::memory_order_relaxed);
    agg.self_ns += self_ns_of(*node);
  });
}

std::vector<PathStat> sorted_paths(PathMap& merged) {
  std::vector<PathStat> out;
  out.reserve(merged.size());
  for (auto& [key, stat] : merged) {
    stat.node = key.first;
    stat.path = key.second;
    out.push_back(std::move(stat));
  }
  return out;
}

}  // namespace

RegionId intern(const std::string& name) {
  require(!name.empty(), "prof::intern: region name must be non-empty");
  Regions& r = regions();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.ids.find(name);
  if (it != r.ids.end()) return it->second;
  const RegionId id = static_cast<RegionId>(r.names.size());
  r.names.push_back(name);
  r.ids.emplace(name, id);
  return id;
}

const std::string& region_name(RegionId id) {
  Regions& r = regions();
  std::lock_guard<std::mutex> lock(r.mutex);
  require(id < r.names.size(), "prof::region_name: unknown region id");
  return r.names[id];
}

std::vector<PathStat> merged_paths() {
  PathMap merged;
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (const ThreadArena& arena : a.list) merge_arena(arena, merged);
  return sorted_paths(merged);
}

std::vector<std::vector<PathStat>> thread_paths() {
  std::vector<std::vector<PathStat>> out;
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (const ThreadArena& arena : a.list) {
    PathMap paths;
    merge_arena(arena, paths);
    out.push_back(sorted_paths(paths));
  }
  return out;
}

std::vector<RegionStat> region_table() {
  std::map<std::string, RegionStat> by_name;
  for (const PathStat& path : merged_paths()) {
    RegionStat& stat = by_name[path.path.back()];
    stat.name = path.path.back();
    stat.calls += path.calls;
    stat.total_ns += path.total_ns;
    stat.self_ns += path.self_ns;
  }
  std::vector<RegionStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  std::sort(out.begin(), out.end(),
            [](const RegionStat& a, const RegionStat& b) {
              if (a.calls != b.calls) return a.calls > b.calls;
              return a.name < b.name;
            });
  return out;
}

std::string folded() {
  std::ostringstream os;
  for (const PathStat& path : merged_paths()) {
    bool first = true;
    if (!path.node.empty()) {
      os << path.node;
      first = false;
    }
    for (const std::string& frame : path.path) {
      if (!first) os << ';';
      os << frame;
      first = false;
    }
    os << ' ' << path.self_ns << '\n';
  }
  return os.str();
}

void write_folded(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("prof::write_folded: cannot open " + path);
  out << folded();
  if (!out) throw Error("prof::write_folded: write failed for " + path);
}

std::string report(std::size_t max_rows) {
  const std::vector<RegionStat> table = region_table();
  std::ostringstream os;
  os << "== coda_top: hot regions (calls desc) ==\n";
  if (table.empty()) {
    os << "  (no profiled regions)\n";
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %12s %12s %12s\n", "region",
                "calls", "self", "total");
  os << line;
  std::size_t rows = 0;
  for (const RegionStat& stat : table) {
    if (rows++ == max_rows) {
      os << "  ... (" << (table.size() - max_rows) << " more)\n";
      break;
    }
    std::snprintf(line, sizeof(line), "  %-28s %12llu %12s %12s\n",
                  stat.name.c_str(),
                  static_cast<unsigned long long>(stat.calls),
                  format_seconds(stat.self_ns * 1e-9).c_str(),
                  format_seconds(stat.total_ns * 1e-9).c_str());
    os << line;
  }
  // Derived FLOP rate: every GEMM call is one `kernel.gemm` region whose
  // seconds feed kernel.gemm.seconds, so all flops divide all seconds.
  const auto& reg = MetricsRegistry::instance();
  const auto flops = reg.find_counter("kernel.gemm.flops");
  const Histogram* seconds = reg.find_histogram("kernel.gemm.seconds");
  if (flops && *flops > 0 && seconds != nullptr && seconds->sum() > 0.0) {
    std::snprintf(line, sizeof(line),
                  "  kernel.gemm: %.2f GF/s (%llu flops / %s)\n",
                  static_cast<double>(*flops) / seconds->sum() * 1e-9,
                  static_cast<unsigned long long>(*flops),
                  format_seconds(seconds->sum()).c_str());
    os << line;
  }
  return os.str();
}

void publish_node(const std::string& node) {
  if (node.empty()) return;
  struct Delta {
    std::uint64_t calls = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::string, Delta> deltas;
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (ThreadArena& arena : a.list) {
    for_each_node(arena, [&deltas, &node](PathNode* root, PathNode* n) {
      if (root->node_name != node) return;
      const std::uint64_t calls = n->calls.load(std::memory_order_relaxed);
      const std::uint64_t self = self_ns_of(*n);
      Delta& d = deltas[region_name(n->region)];
      if (calls > n->pub_calls) d.calls += calls - n->pub_calls;
      if (self > n->pub_self_ns) d.self_ns += self - n->pub_self_ns;
      n->pub_calls = calls;
      n->pub_self_ns = self;
    });
  }
  if (deltas.empty()) return;
  // Equal increments on the shard and the process-wide registry keep the
  // telemetry invariant (global == sum of shards) that
  // TelemetryCollector::describe_divergence() checks.
  MetricScope& scope = MetricScope::for_node(node);
  for (const auto& [region, d] : deltas) {
    if (d.calls > 0) {
      obs::counter("prof." + region + ".calls").inc(d.calls);
      scope.counter("prof." + region + ".calls").inc(d.calls);
    }
    if (d.self_ns > 0) {
      obs::counter("prof." + region + ".self_ns").inc(d.self_ns);
      scope.counter("prof." + region + ".self_ns").inc(d.self_ns);
    }
  }
}

void publish_all() {
  std::vector<std::string> nodes;
  {
    Arenas& a = arenas();
    std::lock_guard<std::mutex> lock(a.mutex);
    for (const ThreadArena& arena : a.list) {
      for (PathNode* root = arena.first_root.load(std::memory_order_acquire);
           root != nullptr; root = root->next_sibling) {
        if (root->node_name.empty()) continue;
        if (root->calls.load(std::memory_order_relaxed) == 0 &&
            root->first_child.load(std::memory_order_acquire) == nullptr) {
          continue;
        }
        nodes.push_back(root->node_name);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const std::string& node : nodes) publish_node(node);
}

std::size_t arena_count() {
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  return a.list.size();
}

bool empty() {
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (const ThreadArena& arena : a.list) {
    bool any = false;
    for_each_node(arena, [&any](PathNode*, PathNode* node) {
      if (node->calls.load(std::memory_order_relaxed) > 0) any = true;
    });
    if (any) return false;
  }
  return true;
}

void reset() {
  Arenas& a = arenas();
  std::lock_guard<std::mutex> lock(a.mutex);
  for (ThreadArena& arena : a.list) {
    for_each_node(arena, [](PathNode*, PathNode* node) {
      node->calls.store(0, std::memory_order_relaxed);
      node->total_ns.store(0, std::memory_order_relaxed);
      node->pub_calls = 0;
      node->pub_self_ns = 0;
    });
  }
}

}  // namespace coda::obs::prof

namespace coda::obs {

using prof::PathNode;
using prof::t_state;

Region::Region(prof::RegionId region) {
  prof::ThreadArena& arena = prof::acquire_arena();
  PathNode* parent = t_state.current;
  PathNode* node;
  if (parent == nullptr) {
    node = prof::root_for(arena, Tracer::current_node(), region);
  } else {
    node = prof::find_child(parent, region);
    if (node == nullptr) node = prof::add_child(arena, parent, region);
  }
  node_ = node;
  prev_ = parent;
  t_state.current = node;
  static auto& scopes = obs::counter("prof.scopes");
  scopes.inc();
  start_ = std::chrono::steady_clock::now();
}

Region::Region(prof::RegionId region, Traced) : Region(region) {
  Tracer& tracer = Tracer::instance();
  SpanRecord& span = span_.emplace();
  span.id = tracer.next_id();
  span.parent_id = Tracer::current_span();
  prev_trace_ = Tracer::current_trace();
  span.trace_id = prev_trace_ != 0 ? prev_trace_ : tracer.next_trace_id();
  span.name = prof::region_name(region);
  span.node = Tracer::current_node();
  span.start_seconds = tracer.seconds_at(start_);
  Tracer::set_current_span(span.id);
  Tracer::set_current_trace(span.trace_id);
}

Region::Region(Phase phase)
    : Region(phase == Phase::kPrepare ? region_id<"eval.fold.prepare">()
             : phase == Phase::kFit   ? region_id<"eval.fold.fit">()
                                      : region_id<"eval.fold.score">()) {
  phase_ = phase;
}

double Region::stop() {
  const std::uint64_t elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  auto* node = static_cast<PathNode*>(node_);
  // Single-writer accumulate: relaxed load+store, no RMW on the hot path.
  node->calls.store(node->calls.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  node->total_ns.store(
      node->total_ns.load(std::memory_order_relaxed) + elapsed,
      std::memory_order_relaxed);
  t_state.current = static_cast<PathNode*>(prev_);
  node_ = nullptr;
  const double seconds = static_cast<double>(elapsed) * 1e-9;
  if (span_) {
    Tracer::set_current_span(span_->parent_id);
    Tracer::set_current_trace(prev_trace_);
    span_->duration_seconds = seconds;
    Tracer::instance().record(std::move(*span_));
    span_.reset();
  }
  if (phase_) charge_phase(*phase_, seconds);
  return seconds;
}

TraceContext Region::context() const {
  return span_ ? TraceContext{span_->trace_id, span_->id}
               : Tracer::current_context();
}

void Region::tag(std::string key, std::string value) {
  if (span_) span_->tags.emplace_back(std::move(key), std::move(value));
}

void Region::set_node(std::string node) {
  if (span_) span_->node = std::move(node);
}

}  // namespace coda::obs
