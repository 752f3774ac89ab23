// Shared helpers for the bench harness: fixed-width artifact tables that
// regenerate the paper's tables/figures as measured artifacts, printed
// before the google-benchmark micro benchmarks run.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/stopwatch.h"

namespace coda::bench {

/// Prints a fixed-width table: header row, rule, data rows. Column widths
/// come from the widths vector (positive = right-aligned numeric-ish,
/// negative = left-aligned text).
inline void print_table(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows,
                        const std::vector<int>& widths) {
  auto print_row = [&widths](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      const int w = i < widths.size() ? widths[i] : -20;
      std::printf("%*s  ", w, row[i].c_str());
    }
    std::printf("\n");
  };
  print_row(header);
  std::size_t total = 0;
  for (const int w : widths) total += static_cast<std::size_t>(w < 0 ? -w : w) + 2;
  std::string rule(total, '-');
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows) print_row(row);
}

/// printf-style float formatting into std::string.
inline std::string fmt(double value, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

inline std::string fmt_int(std::size_t value) { return std::to_string(value); }

inline bool& metrics_dump_requested() {
  static bool requested = false;
  return requested;
}

inline std::string& metrics_dump_path() {
  static std::string path;
  return path;
}

inline bool& trace_dump_requested() {
  static bool requested = false;
  return requested;
}

inline std::string& trace_dump_path() {
  static std::string path;
  return path;
}

inline bool& profile_dump_requested() {
  static bool requested = false;
  return requested;
}

inline std::string& profile_dump_path() {
  static std::string path;
  return path;
}

// --------------------------------------------------------------------------
// --bench-json: every bench binary can persist a machine-readable baseline
// (BENCH_<name>.json next to the cwd by default) holding its whole-run wall
// time, any named results recorded via record_entry(), and the final
// metrics snapshot. Committing the file gives perf changes a diffable
// anchor.
// --------------------------------------------------------------------------

/// One named measurement in the baseline file.
struct BenchEntry {
  std::string name;
  double wall_seconds;
  double throughput;  // 0 when not meaningful
  std::string unit;   // unit of `throughput`, e.g. "GF/s", "rows/s"
  /// True for deterministic quantities (candidate counts, exact result
  /// counters): scripts/bench_gate.py compares them exactly instead of
  /// within the timing tolerance, so a correctness regression can't hide
  /// inside the perf noise band.
  bool exact = false;
  /// Per-entry regression band overriding the gate's --tolerance flag
  /// (negative = use the flag). Widen it for entries whose runtime is
  /// dominated by noisy work (e.g. multi-second neural fits) so the gate
  /// stays strict on the quiet entries.
  double tolerance = -1.0;
};

inline bool& bench_dump_requested() {
  static bool requested = false;
  return requested;
}

inline std::string& bench_dump_path() {
  static std::string path;
  return path;
}

inline std::string& bench_name() {
  static std::string name = "bench";
  return name;
}

inline std::vector<BenchEntry>& bench_entries() {
  static std::vector<BenchEntry> entries;
  return entries;
}

/// Top-level string fields of the baseline file (e.g. the GEMM dispatch
/// target the numbers were taken on), in recording order.
inline std::vector<std::pair<std::string, std::string>>& bench_tags() {
  static std::vector<std::pair<std::string, std::string>> tags;
  return tags;
}

inline void record_tag(const std::string& key, const std::string& value) {
  bench_tags().emplace_back(key, value);
}

inline Stopwatch& bench_run_timer() {
  static Stopwatch timer;
  return timer;
}

/// Records a named result for the --bench-json baseline. Pass throughput 0
/// (and any unit) when only the wall time is meaningful; pass exact=true
/// when `throughput` is a deterministic count the regression gate should
/// compare exactly.
inline void record_entry(const std::string& name, double wall_seconds,
                         double throughput = 0.0,
                         const std::string& unit = "", bool exact = false,
                         double tolerance = -1.0) {
  bench_entries().push_back(
      BenchEntry{name, wall_seconds, throughput, unit, exact, tolerance});
}

namespace detail {

inline void write_or_print(const std::string& payload,
                           const std::string& path, const char* what) {
  if (path.empty()) {
    std::printf("%s\n", payload.c_str());
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s to '%s'\n", what,
                 path.c_str());
    return;
  }
  std::fprintf(f, "%s\n", payload.c_str());
  std::fclose(f);
}

}  // namespace detail

/// Consumes `--metrics-json[=path]`, `--trace-json[=path]`,
/// `--profile-folded[=path]` and `--bench-json[=path]` from argv before
/// google-benchmark's own flag parsing (which rejects unknown flags). With
/// no path, --metrics-json, --trace-json and --profile-folded go to stdout
/// after the benchmarks run; --bench-json defaults to BENCH_<name>.json
/// where <name> is the binary's basename minus any "bench_" prefix. Also
/// starts the whole-run wall clock used in the baseline file.
inline void strip_obs_flags(int* argc, char** argv) {
  // Derive the bench name from argv[0]: ".../bench_kernels" -> "kernels".
  std::string prog = argv[0] != nullptr ? argv[0] : "bench";
  const std::size_t slash = prog.find_last_of('/');
  if (slash != std::string::npos) prog = prog.substr(slash + 1);
  if (prog.rfind("bench_", 0) == 0) prog = prog.substr(6);
  bench_name() = prog.empty() ? "bench" : prog;
  bench_run_timer().reset();

  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-json") {
      metrics_dump_requested() = true;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_dump_requested() = true;
      metrics_dump_path() = arg.substr(std::string("--metrics-json=").size());
    } else if (arg == "--trace-json") {
      trace_dump_requested() = true;
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      trace_dump_requested() = true;
      trace_dump_path() = arg.substr(std::string("--trace-json=").size());
    } else if (arg == "--profile-folded") {
      profile_dump_requested() = true;
    } else if (arg.rfind("--profile-folded=", 0) == 0) {
      profile_dump_requested() = true;
      profile_dump_path() =
          arg.substr(std::string("--profile-folded=").size());
    } else if (arg == "--bench-json") {
      bench_dump_requested() = true;
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      bench_dump_requested() = true;
      bench_dump_path() = arg.substr(std::string("--bench-json=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
}

namespace detail {

inline std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string bench_baseline_json() {
  std::string out = "{\n  \"bench\": \"" + bench_name() + "\",\n";
  for (const auto& [key, value] : bench_tags()) {
    out += "  \"" + key + "\": \"" + value + "\",\n";
  }
  out += "  \"wall_seconds\": " +
         json_number(bench_run_timer().elapsed_seconds()) + ",\n";
  out += "  \"entries\": [";
  const auto& entries = bench_entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    const BenchEntry& e = entries[i];
    out += "    {\"name\": \"" + e.name +
           "\", \"wall_seconds\": " + json_number(e.wall_seconds) +
           ", \"throughput\": " + json_number(e.throughput) +
           ", \"unit\": \"" + e.unit +
           "\", \"exact\": " + (e.exact ? "true" : "false");
    if (e.tolerance >= 0.0) {
      out += ", \"tolerance\": " + json_number(e.tolerance);
    }
    out += "}";
  }
  out += entries.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": " + coda::obs::snapshot_json() + "\n}";
  return out;
}

}  // namespace detail

/// Emits whatever `--metrics-json` / `--trace-json` / `--profile-folded` /
/// `--bench-json` requested.
inline void dump_obs_if_requested() {
  if (metrics_dump_requested()) {
    detail::write_or_print(coda::obs::snapshot_json(), metrics_dump_path(),
                           "metrics");
  }
  if (trace_dump_requested()) {
    detail::write_or_print(coda::obs::export_chrome_trace(),
                           trace_dump_path(), "trace");
  }
  if (profile_dump_requested()) {
    // Folded-stack text (flamegraph.pl / speedscope input): one line per
    // unique call path, "node;r1;r2 self_ns".
    detail::write_or_print(coda::obs::prof::folded(), profile_dump_path(),
                           "folded profile");
  }
  if (bench_dump_requested()) {
    std::string path = bench_dump_path();
    if (path.empty()) path = "BENCH_" + bench_name() + ".json";
    detail::write_or_print(detail::bench_baseline_json(), path, "baseline");
  }
}

}  // namespace coda::bench
