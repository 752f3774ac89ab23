// Umbrella header for the observability subsystem: the metrics registry,
// the span tracer, the flight recorder, per-candidate cost attribution,
// the region profiler, and the exporters. See README.md for the
// metric-name table, DESIGN.md §10 for context propagation and the
// dual-clock model, and DESIGN.md §15 for the profiler.
#pragma once

#include <string>

#include "src/obs/collector.h"
#include "src/obs/costs.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace coda::obs {

/// Full JSON snapshot of the process-wide registry, tracer, and candidate
/// cost table: {"counters": {...}, "gauges": {...}, "histograms": {...},
/// "candidates": {...}, "spans": ...}. `max_spans` caps the span records
/// included (most recent kept).
std::string snapshot_json(std::size_t max_spans = 64);

/// Human-readable text dump of the same data (counters/gauges sorted by
/// name, histograms as count/sum/mean plus interpolated p50/p95/p99).
std::string dump();

/// The retained spans as Chrome trace-event ("Trace Event Format") JSON,
/// loadable in Perfetto / chrome://tracing: nodes map to pids, threads to
/// tids, spans to "X" complete events, registry counters to "C" counter
/// events. Logical-clock (SimNet) spans are shifted onto the steady
/// timeline via each trace's alignment anchor and shown on a per-node
/// "network" track; traces that never crossed the network keep their raw
/// logical timestamps (clock domains stay distinguishable via the
/// "clock" arg on every event).
std::string export_chrome_trace();

/// Writes export_chrome_trace() to `path` (throws CodaError on I/O error).
void write_chrome_trace(const std::string& path);

/// Honours the CODA_METRICS_DUMP environment variable: unset/"0" = no-op,
/// "1" = print snapshot_json() to stdout, anything else = write it to that
/// path. Also honours CODA_TRACE_DUMP with the same semantics for
/// export_chrome_trace(), and CODA_PROFILE_DUMP for the profiler's
/// folded-stack export (prof::folded()). Called at the end of
/// example/bench mains so instrumented runs can export without code
/// changes.
void dump_if_env();

/// The CODA_TRACE_DUMP half of dump_if_env(), separately callable.
void trace_dump_if_env();

/// Zeroes every metric (the process-wide registry AND every per-node
/// MetricScope shard), clears the tracer (spans, anchors, and span/trace
/// id sources), the flight recorder, the candidate cost table, the region
/// profiler (prof::reset()), and the global SLO registry — full test
/// isolation between seed-deterministic runs: two identical runs
/// bracketed by reset_all() produce identical metrics output. Per-instance
/// views (DarrClient::stats() etc.) belong to their objects and are not
/// touched.
void reset_all();

}  // namespace coda::obs
