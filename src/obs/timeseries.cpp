#include "src/obs/timeseries.h"

#include <algorithm>

#include "src/util/error.h"

namespace coda::obs {

TimeSeries::TimeSeries(std::size_t capacity) : capacity_(capacity) {
  require(capacity_ > 0, "TimeSeries: capacity must be positive");
  ring_.reserve(capacity_);
}

void TimeSeries::sample(double t, double value) {
  if (ring_.size() < capacity_) {
    ring_.push_back(Point{t, value});
  } else {
    ring_[next_slot_] = Point{t, value};
    next_slot_ = (next_slot_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<TimeSeries::Point> TimeSeries::points() const {
  std::vector<Point> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  // Full ring: next_slot_ is the oldest sample.
  for (std::size_t i = 0; i < capacity_; ++i) {
    out.push_back(ring_[(next_slot_ + i) % capacity_]);
  }
  return out;
}

TimeSeries::Point TimeSeries::latest() const {
  if (ring_.empty()) return Point{};
  if (ring_.size() < capacity_) return ring_.back();
  return ring_[(next_slot_ + capacity_ - 1) % capacity_];
}

double TimeSeries::rate_per_second() const {
  if (ring_.size() < 2) return 0.0;
  const auto pts = points();
  const double dt = pts.back().t - pts.front().t;
  if (dt <= 0.0) return 0.0;
  return (pts.back().value - pts.front().value) / dt;
}

void TimeSeries::clear() {
  ring_.clear();
  next_slot_ = 0;
  total_ = 0;
}

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, h] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, h);
      continue;
    }
    HistogramSnapshot& mine = it->second;
    require(mine.bounds == h.bounds,
            "MetricsSnapshot::merge_from: histogram bounds differ for '" +
                name + "'");
    for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

namespace {

constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace

Bytes MetricsSnapshot::serialize() const {
  ByteWriter w;
  w.write_u32(kSnapshotVersion);
  w.write_u64(counters.size());
  for (const auto& [name, value] : counters) {
    w.write_string(name);
    w.write_u64(value);
  }
  w.write_u64(gauges.size());
  for (const auto& [name, value] : gauges) {
    w.write_string(name);
    w.write_double(value);
  }
  w.write_u64(histograms.size());
  for (const auto& [name, h] : histograms) {
    w.write_string(name);
    w.write_doubles(h.bounds);
    w.write_u64(h.buckets.size());
    for (const std::uint64_t b : h.buckets) w.write_u64(b);
    w.write_u64(h.count);
    w.write_double(h.sum);
  }
  return w.take();
}

MetricsSnapshot MetricsSnapshot::deserialize(const Bytes& buffer) {
  ByteReader r(buffer);
  const std::uint32_t version = r.read_u32();
  if (version != kSnapshotVersion) {
    throw DecodeError("MetricsSnapshot: unknown wire version " +
                      std::to_string(version));
  }
  MetricsSnapshot out;
  const std::uint64_t n_counters = r.read_u64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    const std::string name = r.read_string();
    out.counters[name] = r.read_u64();
  }
  const std::uint64_t n_gauges = r.read_u64();
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    const std::string name = r.read_string();
    out.gauges[name] = r.read_double();
  }
  const std::uint64_t n_histograms = r.read_u64();
  for (std::uint64_t i = 0; i < n_histograms; ++i) {
    const std::string name = r.read_string();
    HistogramSnapshot h;
    h.bounds = r.read_doubles();
    const std::uint64_t n_buckets = r.read_u64();
    // A well-formed histogram has bounds.size() + 1 buckets; reject other
    // shapes before the bucket loop can be driven by a hostile length.
    if (n_buckets != h.bounds.size() + 1) {
      throw DecodeError("MetricsSnapshot: histogram bucket/bound mismatch");
    }
    h.buckets.reserve(n_buckets);
    for (std::uint64_t b = 0; b < n_buckets; ++b) {
      h.buckets.push_back(r.read_u64());
    }
    h.count = r.read_u64();
    h.sum = r.read_double();
    out.histograms.emplace(name, std::move(h));
  }
  return out;
}

MetricsSnapshot snapshot_registry(const MetricsRegistry& registry) {
  MetricsSnapshot out;
  for (const auto& [name, value] : registry.counter_values()) {
    out.counters[name] = value;
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    out.gauges[name] = value;
  }
  for (const auto& [name, h] : registry.histogram_views()) {
    HistogramSnapshot snap;
    snap.bounds = h->bounds();
    snap.buckets = h->bucket_counts();
    snap.count = h->count();
    snap.sum = h->sum();
    out.histograms.emplace(name, std::move(snap));
  }
  return out;
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& base,
                               const MetricsSnapshot& current) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : current.counters) {
    const auto it = base.counters.find(name);
    const std::uint64_t before = it == base.counters.end() ? 0 : it->second;
    // A counter that moved backwards means the registry was reset between
    // snapshots; re-ship the absolute value (fresh-registration
    // semantics) rather than underflowing.
    const std::uint64_t inc = value >= before ? value - before : value;
    if (inc != 0) delta.counters[name] = inc;
  }
  for (const auto& [name, value] : current.gauges) {
    const auto it = base.gauges.find(name);
    if (it == base.gauges.end() || it->second != value) {
      delta.gauges[name] = value;  // absolute
    }
  }
  for (const auto& [name, h] : current.histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end() || it->second.bounds != h.bounds) {
      if (h.count != 0) delta.histograms[name] = h;  // whole histogram
      continue;
    }
    const HistogramSnapshot& before = it->second;
    if (h.count == before.count && h.sum == before.sum) continue;
    HistogramSnapshot d;
    d.bounds = h.bounds;
    d.buckets.reserve(h.buckets.size());
    bool reset = h.count < before.count;
    for (std::size_t i = 0; i < h.buckets.size() && !reset; ++i) {
      reset = h.buckets[i] < before.buckets[i];
    }
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      d.buckets.push_back(reset ? h.buckets[i]
                                : h.buckets[i] - before.buckets[i]);
    }
    d.count = reset ? h.count : h.count - before.count;
    d.sum = h.sum;  // absolute (replace-on-apply)
    delta.histograms[name] = std::move(d);
  }
  return delta;
}

void apply_snapshot_delta(MetricsSnapshot& base,
                          const MetricsSnapshot& delta) {
  for (const auto& [name, inc] : delta.counters) base.counters[name] += inc;
  for (const auto& [name, value] : delta.gauges) base.gauges[name] = value;
  for (const auto& [name, d] : delta.histograms) {
    auto it = base.histograms.find(name);
    if (it == base.histograms.end() || it->second.bounds != d.bounds) {
      base.histograms[name] = d;
      continue;
    }
    HistogramSnapshot& mine = it->second;
    for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
      mine.buckets[i] += d.buckets[i];
    }
    mine.count += d.count;
    mine.sum = d.sum;  // absolute
  }
}

}  // namespace coda::obs
