// The benchmark's result sheet: every metric by name, with its unit and a
// note saying how it was measured. Ratios must carry their base (numerator
// and denominator with names); add() refuses a ratio without one.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricLine {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) {
      throw std::invalid_argument("metric '" + name + "' is not finite");
    }
    if (unit == "ratio" && note.find(" / ") == std::string::npos) {
      throw std::invalid_argument("ratio metric '" + name +
                                  "' has no base (numerator / denominator)");
    }
    for (const auto& m : lines_) {
      if (m.name == name) {
        throw std::invalid_argument("metric '" + name + "' reported twice");
      }
    }
    lines_.push_back(MetricLine{name, value, unit, note});
  }

  void add_ratio(const std::string& name, const Ratio& r) {
    add(name, r.value(), "ratio", r.base());
  }

  /// A metric that does not apply to this workload: printed, never emitted.
  void add_absent(const std::string& name, const std::string& unit,
                  const std::string& why) {
    absent_.push_back(MetricLine{name, 0.0, unit, why});
  }

  const std::vector<MetricLine>& lines() const { return lines_; }

  void print_table(std::FILE* out) const {
    std::fprintf(out, "%-40s %20s  %-6s %s\n", "metric", "value", "unit",
                 "how");
    for (const auto& m : lines_) {
      std::fprintf(out, "%-40s %20.10g  %-6s %s\n", m.name.c_str(), m.value,
                   m.unit.c_str(), m.note.c_str());
    }
    for (const auto& m : absent_) {
      std::fprintf(out, "%-40s %20s  %-6s %s\n", m.name.c_str(), "n/a",
                   m.unit.c_str(), m.note.c_str());
    }
  }

  /// The machine-readable line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..}}}, values with all digits.
  std::string json(bool correct, std::size_t attempted,
                   std::size_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      // Shortest text that reads back as the same double: every digit.
      const auto end = std::to_chars(buf, buf + sizeof(buf), lines_[i].value);
      const std::string value(buf, end.ptr);
      s += (i ? ", \"" : "\"") + lines_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + lines_[i].unit + "\"}";
    }
    s += "}}";
    return s;
  }

 private:
  std::vector<MetricLine> lines_;
  std::vector<MetricLine> absent_;
};

}  // namespace perfbench
