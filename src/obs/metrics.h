// Process-wide metrics registry (observability layer): named counters,
// gauges, and fixed-bucket histograms shared by every subsystem. The fast
// path is a relaxed std::atomic operation — call sites cache the reference
// once (`static auto& c = obs::counter("name");`) so the registry's mutex
// is only ever taken at first registration and at export time.
//
// Naming convention: dot-separated families, label as the last segment —
// e.g. `darr.repo.lookup.hit` / `darr.repo.lookup.miss`. Each fact has one
// registered name, never one per instance: the per-instance views
// (DarrRepository::counters(), DarrClient::stats(), ClientCache::stats(),
// RemoteModelService::stats()) read the unregistered own count of a
// FactCounter, and SimNet::total() its own unregistered members.
//
// Fleet telemetry (DESIGN.md §12): in addition to the process-wide
// registry, every simulated node can own a MetricScope — a registry shard
// keyed by node name. Instrumented call sites write both the shard and the
// global family in one call (FactCounter / ScopedHistogram, or the
// count_scoped()/observe_scoped() helpers driven by obs::NodeScope), so
// the global view stays the exact sum of the shards for families written
// exclusively through scoped handles.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace coda::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated) floating-point value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations v <= bound[i]
/// (and > bound[i-1]); one implicit +inf overflow bucket at the end.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.value(); }

  /// Finite bounds; bucket index bounds().size() is the +inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  std::size_t n_buckets() const { return buckets_.size(); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Every bucket's count, +inf slot last (quantile_from_buckets() input).
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

  /// Estimated q-quantile (0 <= q <= 1) by linear interpolation within the
  /// bucket that crosses rank q*count. Assumes non-negative observations
  /// (bucket 0 interpolates from 0); ranks landing in the +inf overflow
  /// bucket clamp to the largest finite bound.
  /// An EMPTY histogram (count() == 0) returns 0.0 by contract — never
  /// NaN, so threshold comparisons (SLO specs) stay well-defined before
  /// the first observation. Guarded explicitly and pinned by a test.
  /// A live snapshot under concurrent observes is approximate.
  double quantile(double q) const;

  /// Adds `other`'s buckets, count, and sum into this histogram (the
  /// per-node → fleet rollup). Throws InvalidArgument when the bucket
  /// bounds differ. The merge is per-bucket atomic, not transactional: a
  /// concurrent observe on either side lands wholly in one of them.
  void merge(const Histogram& other);

  /// `count` bounds starting at `start`, each `factor` times the previous.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  /// Default bounds for durations in seconds (1us .. ~67s, factor 4).
  static std::vector<double> default_time_bounds();
  /// Default bounds for sizes in bytes (64B .. 16MB, factor 4).
  static std::vector<double> default_byte_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  Gauge sum_;
};

/// The process-wide registry. Registration is idempotent: the first call
/// for a name creates the metric, later calls return the same object.
/// References stay valid for the process lifetime (reset() zeroes values,
/// it never removes registrations).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used only by the call that creates the histogram; empty
  /// means Histogram::default_time_bounds().
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Zeroes every value; registered references remain valid.
  void reset();

  // Export views (copied under the registry lock, sorted by name).
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;
  std::vector<std::pair<std::string, const Histogram*>> histogram_views()
      const;

  // Find-without-create lookups (the SLO evaluator probes names a spec
  // references; registering them as a side effect would pollute exports).
  std::optional<std::uint64_t> find_counter(const std::string& name) const;
  std::optional<double> find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Convenience shorthands for the process-wide registry.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name,
                     std::vector<double> bounds = {});

/// A per-node shard of the metrics registry (fleet telemetry). Shards are
/// created on first use and, like the process-wide registry, live for the
/// process: references into a shard stay valid forever, and
/// reset_values() zeroes them without removing registrations. The shard
/// installed on the calling thread (via obs::NodeScope / ContextScope) is
/// what the ambient count_scoped()/observe_scoped() helpers write to.
class MetricScope {
 public:
  /// Finds or creates the shard for `node` (non-empty).
  static MetricScope& for_node(const std::string& node);
  /// The existing shard for `node`, or nullptr.
  static MetricScope* find(const std::string& node);
  /// Registered shard names, sorted.
  static std::vector<std::string> nodes();
  /// Zeroes every shard's values (registrations and references survive).
  static void reset_values();

  /// The shard ambient on the calling thread (nullptr = none installed).
  static MetricScope* current();
  /// Installs `scope` as the calling thread's ambient shard and returns
  /// the previous one. NodeScope/ContextScope use this; pass nullptr to
  /// clear.
  static MetricScope* install(MetricScope* scope);

  const std::string& node() const { return node_; }
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  Counter& counter(const std::string& name) { return registry_.counter(name); }
  Gauge& gauge(const std::string& name) { return registry_.gauge(name); }
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {}) {
    return registry_.histogram(name, std::move(bounds));
  }

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

 private:
  explicit MetricScope(std::string node) : node_(std::move(node)) {}

  std::string node_;
  MetricsRegistry registry_;
};

/// One counted fact of one object: inc() moves the object's own count
/// (value(), the read behind per-instance views such as
/// DarrClient::stats()), the process-wide family counter and, for an
/// object bound to a node, that node's shard by the same amount. The own
/// count is never registered, so instances sharing a node keep separate
/// values while the family stays the exact sum of the shards. Not
/// copyable; construct in place.
class FactCounter {
 public:
  FactCounter(MetricScope& node, const std::string& name)
      : global_(&counter(name)), shard_(&node.counter(name)) {}
  /// A fact with no node shard (e.g. a whole SimNet fabric's traffic).
  explicit FactCounter(const std::string& name) : global_(&counter(name)) {}

  void inc(std::uint64_t n = 1) {
    own_.inc(n);
    global_->inc(n);
    if (shard_ != nullptr) shard_->inc(n);
  }
  std::uint64_t value() const { return own_.value(); }
  /// Zeroes the own count only; the registered counters keep counting.
  void reset() { own_.reset(); }

 private:
  Counter own_;
  Counter* global_;
  Counter* shard_ = nullptr;
};

/// Histogram handle writing the process-wide family and one node's shard:
/// observe() hits both. `bounds` applies as in obs::histogram().
class ScopedHistogram {
 public:
  ScopedHistogram(MetricScope& node, const std::string& name,
                  const std::vector<double>& bounds = {})
      : primary_(&histogram(name, bounds)),
        shard_(&node.histogram(name, bounds)) {}

  void observe(double value) {
    primary_->observe(value);
    shard_->observe(value);
  }

 private:
  Histogram* primary_;
  Histogram* shard_;
};

/// Increments `name` in the process-wide registry and, when the calling
/// thread runs under an obs::NodeScope, in that node's shard too.
void count_scoped(const std::string& name, std::uint64_t n = 1);

/// count_scoped() into `node`'s shard instead of the ambient one.
void count_scoped(MetricScope& node, const std::string& name,
                  std::uint64_t n = 1);

/// observe()s `name` in the process-wide registry and the ambient node
/// shard (if any). `bounds` applies only when a side first registers the
/// histogram, exactly like obs::histogram().
void observe_scoped(const std::string& name, double value,
                    std::vector<double> bounds = {});

/// Shared quantile estimator over an exported bucket vector (`buckets` has
/// one +inf overflow slot past `bounds`); the logic behind
/// Histogram::quantile(), reused by HistogramSnapshot.
double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& buckets,
                             double q);

}  // namespace coda::obs
