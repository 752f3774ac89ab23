#include "src/obs/metrics.h"

#include <algorithm>

#include "src/util/error.h"

namespace coda::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  require(!bounds_.empty(), "Histogram: needs at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    require(bounds_[i - 1] < bounds_[i],
            "Histogram: bounds must be strictly increasing");
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.add(value);
}

double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& buckets,
                             double q) {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;

  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.back();  // +inf bucket: clamp
    const double lower = (i == 0) ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double fraction =
        (rank - before) / static_cast<double>(buckets[i]);
    return lower + (upper - lower) * fraction;
  }
  return bounds.back();
}

double Histogram::quantile(double q) const {
  // Empty histogram: defined to return 0.0, explicitly, not NaN — an SLO
  // check like "p99 < 0.1" must stay monotone-safe before the first
  // observation, and NaN comparisons silently evaluate false. Pinned by
  // Histogram.EmptyQuantileIsZero.
  if (count() == 0) return 0.0;
  // Snapshot the bucket counts once so the rank and the cumulative walk
  // agree even while other threads are observing.
  return quantile_from_buckets(bounds_, bucket_counts(), q);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::merge(const Histogram& other) {
  require(bounds_ == other.bounds_,
          "Histogram::merge: bucket bounds differ");
  std::uint64_t merged_count = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n =
        other.buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    buckets_[i].fetch_add(n, std::memory_order_relaxed);
    merged_count += n;
  }
  if (merged_count > 0) {
    count_.fetch_add(merged_count, std::memory_order_relaxed);
  }
  const double s = other.sum();
  if (s != 0.0) sum_.add(s);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.reset();
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  require(start > 0.0 && factor > 1.0 && count > 0,
          "Histogram: bad exponential bound parameters");
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_time_bounds() {
  return exponential_bounds(1e-6, 4.0, 14);  // 1us .. ~67s
}

std::vector<double> Histogram::default_byte_bounds() {
  return exponential_bounds(64.0, 4.0, 10);  // 64B .. 16MB
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_time_bounds();
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter.reset();
  for (auto& [name, gauge] : gauges_) gauge.reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter.value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge.value());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histogram_views() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

std::optional<std::uint64_t> MetricsRegistry::find_counter(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) return std::nullopt;
  return it->second.value();
}

std::optional<double> MetricsRegistry::find_gauge(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second.value();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

Counter& counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}

Gauge& gauge(const std::string& name) {
  return MetricsRegistry::instance().gauge(name);
}

Histogram& histogram(const std::string& name, std::vector<double> bounds) {
  return MetricsRegistry::instance().histogram(name, std::move(bounds));
}

namespace {

// Shard table: name -> scope. Scopes are heap-allocated and never freed
// (same lifetime contract as the process-wide registry), so pointers
// cached by NodeScope installs and FactCounter handles stay valid
// across obs::reset_all().
struct ScopeTable {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<MetricScope>> scopes;
};

ScopeTable& scope_table() {
  static ScopeTable table;
  return table;
}

thread_local MetricScope* t_current_scope = nullptr;

}  // namespace

MetricScope& MetricScope::for_node(const std::string& node) {
  require(!node.empty(), "MetricScope: node name must be non-empty");
  auto& table = scope_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  auto it = table.scopes.find(node);
  if (it == table.scopes.end()) {
    // new instead of make_unique: the constructor is private, and this
    // static member is the only creation path.
    it = table.scopes
             .emplace(node, std::unique_ptr<MetricScope>(new MetricScope(node)))
             .first;
  }
  return *it->second;
}

MetricScope* MetricScope::find(const std::string& node) {
  auto& table = scope_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.scopes.find(node);
  return it == table.scopes.end() ? nullptr : it->second.get();
}

std::vector<std::string> MetricScope::nodes() {
  auto& table = scope_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  std::vector<std::string> out;
  out.reserve(table.scopes.size());
  for (const auto& [name, scope] : table.scopes) out.push_back(name);
  return out;  // std::map iteration: already sorted
}

void MetricScope::reset_values() {
  auto& table = scope_table();
  std::lock_guard<std::mutex> lock(table.mutex);
  for (auto& [name, scope] : table.scopes) scope->registry().reset();
}

MetricScope* MetricScope::current() { return t_current_scope; }

MetricScope* MetricScope::install(MetricScope* scope) {
  MetricScope* previous = t_current_scope;
  t_current_scope = scope;
  return previous;
}

void count_scoped(const std::string& name, std::uint64_t n) {
  MetricsRegistry::instance().counter(name).inc(n);
  if (t_current_scope != nullptr) t_current_scope->counter(name).inc(n);
}

void count_scoped(MetricScope& node, const std::string& name,
                  std::uint64_t n) {
  MetricsRegistry::instance().counter(name).inc(n);
  node.counter(name).inc(n);
}

void observe_scoped(const std::string& name, double value,
                    std::vector<double> bounds) {
  MetricsRegistry::instance().histogram(name, bounds).observe(value);
  if (t_current_scope != nullptr) {
    t_current_scope->histogram(name, std::move(bounds)).observe(value);
  }
}

}  // namespace coda::obs
