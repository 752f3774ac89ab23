#include "src/obs/trace.h"

#include <functional>
#include <thread>

#include "src/obs/metrics.h"

namespace coda::obs {
namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_trace = 0;
thread_local std::string t_current_node;

std::uint64_t this_thread_hash() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(SpanRecord span) {
  // Counters are resolved outside the ring lock; registration is
  // idempotent and the registry has its own synchronisation.
  static auto& recorded_metric = counter("obs.trace.recorded");
  static auto& dropped_metric = counter("obs.trace.dropped");
  span.thread = this_thread_hash();
  bool wrapped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++total_recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(span));
    } else {
      wrapped = true;
      ring_[next_slot_] = std::move(span);
      next_slot_ = (next_slot_ + 1) % capacity_;
    }
  }
  recorded_metric.inc();
  if (wrapped) dropped_metric.inc();
}

std::uint64_t Tracer::record_span(
    std::string name, const TraceContext& parent, std::string node,
    ClockDomain clock, double start_seconds, double duration_seconds,
    std::vector<std::pair<std::string, std::string>> tags) {
  SpanRecord span;
  span.id = next_id();
  span.parent_id = parent.parent_span_id;
  span.trace_id = parent.valid() ? parent.trace_id : next_trace_id();
  span.name = std::move(name);
  span.node = std::move(node);
  span.clock = clock;
  span.start_seconds = start_seconds;
  span.duration_seconds = duration_seconds;
  span.tags = std::move(tags);
  const std::uint64_t id = span.id;
  record(std::move(span));
  return id;
}

void Tracer::anchor(std::uint64_t trace_id, double steady_seconds,
                    double logical_seconds) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  anchors_.emplace(trace_id, Anchor{steady_seconds, logical_seconds});
}

std::map<std::uint64_t, Tracer::Anchor> Tracer::anchors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return anchors_;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring is full: next_slot_ is the oldest entry.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_slot_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_recorded_;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_recorded_ - ring_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_slot_ = 0;
  total_recorded_ = 0;
  anchors_.clear();
  id_source_.store(0, std::memory_order_relaxed);
  trace_source_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::current_span() { return t_current_span; }
void Tracer::set_current_span(std::uint64_t id) { t_current_span = id; }
std::uint64_t Tracer::current_trace() { return t_current_trace; }
void Tracer::set_current_trace(std::uint64_t id) { t_current_trace = id; }
const std::string& Tracer::current_node() { return t_current_node; }

ContextScope::ContextScope(const TraceContext& ctx)
    : prev_trace_(t_current_trace), prev_span_(t_current_span) {
  t_current_trace = ctx.trace_id;
  t_current_span = ctx.parent_span_id;
}

ContextScope::ContextScope(const TraceContext& ctx, std::string node)
    : ContextScope(ctx) {
  node_set_ = true;
  prev_node_ = t_current_node;
  prev_scope_ = MetricScope::install(
      node.empty() ? nullptr : &MetricScope::for_node(node));
  t_current_node = std::move(node);
}

ContextScope::~ContextScope() {
  t_current_trace = prev_trace_;
  t_current_span = prev_span_;
  if (node_set_) {
    t_current_node = std::move(prev_node_);
    MetricScope::install(prev_scope_);
  }
}

NodeScope::NodeScope(std::string node) : prev_(t_current_node) {
  prev_scope_ = MetricScope::install(
      node.empty() ? nullptr : &MetricScope::for_node(node));
  t_current_node = std::move(node);
}

NodeScope::~NodeScope() {
  t_current_node = std::move(prev_);
  MetricScope::install(prev_scope_);
}

}  // namespace coda::obs
