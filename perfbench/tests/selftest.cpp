// Unit tests for the benchmark's statistics and report rules. Run with
// `python3 perfbench/run.py --self-test`, or directly after a build:
// .bench_build/perfbench/perfbench_selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_median() {
  using perfbench::median;
  expect_near(median({3.0}), 3.0, "median of one");
  expect_near(median({5.0, 1.0, 3.0}), 3.0, "median of odd count");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median of even count");
  expect(throws([] { median({}); }), "median of nothing throws");
}

void test_quartiles() {
  using perfbench::quartiles;
  // Values from Python: statistics.quantiles(range(1, 11), n=4)
  // == [2.75, 5.5, 8.25]; statistics.quantiles([1, 2], n=4)
  // == [0.75, 1.5, 2.25]; quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0].
  const auto q10 = quartiles(iota(10));
  expect_near(q10[0], 2.75, "Q1 of 1..10");
  expect_near(q10[1], 5.5, "Q2 of 1..10");
  expect_near(q10[2], 8.25, "Q3 of 1..10");
  const auto q2 = quartiles({2.0, 1.0});
  expect_near(q2[0], 0.75, "Q1 of {1,2}");
  expect_near(q2[1], 1.5, "Q2 of {1,2}");
  expect_near(q2[2], 2.25, "Q3 of {1,2}");
  const auto q11 = quartiles(iota(11));
  expect_near(q11[0], 3.0, "Q1 of 1..11");
  expect_near(q11[2], 9.0, "Q3 of 1..11");
  expect(throws([] { quartiles({1.0}); }), "quartiles of one throw");
}

void test_tail_rule() {
  using perfbench::tail;
  // 1000 samples: p99 (rank 990) leaves exactly 10 beyond; p99.9 only 1.
  auto t = tail(iota(1000));
  expect(t.resolved && t.percentile == 99.0, "p99 at n=1000");
  expect_near(t.value, 990.0, "p99 value at n=1000");
  expect(t.beyond == 10, "10 beyond p99 at n=1000");
  // 100 samples: p95 leaves 5, p90 leaves 10.
  t = tail(iota(100));
  expect(t.resolved && t.percentile == 90.0, "p90 at n=100");
  expect_near(t.value, 90.0, "p90 value at n=100");
  // 40 samples: p75 (rank 30) leaves 10.
  t = tail(iota(40));
  expect(t.resolved && t.percentile == 75.0, "p75 at n=40");
  // 39 samples: p75 rank 30 leaves 9, so p50 (rank 20) with 19 beyond.
  t = tail(iota(39));
  expect(t.resolved && t.percentile == 50.0 && t.beyond == 19, "p50 at n=39");
  // 12 samples: even p50 leaves only 6 — unresolved, flagged.
  t = tail(iota(12));
  expect(!t.resolved && t.percentile == 50.0 && t.beyond == 6,
         "unresolved at n=12");
  expect(t.label().find("unresolved") != std::string::npos,
         "unresolved tail says so");
  // Order of the input does not matter.
  auto shuffled = iota(100);
  std::swap(shuffled[3], shuffled[97]);
  expect_near(tail(shuffled).value, 90.0, "tail sorts its input");
}

void test_ratios_carry_base() {
  perfbench::Report r;
  expect(throws([&] { r.add("x.ratio", 0.5, "ratio"); }),
         "a ratio without a base is refused");
  expect(throws([&] { r.add("x.ratio", 0.5, "ratio", "half"); }),
         "a ratio whose note is not a base is refused");
  r.add_ratio("hit_ratio", perfbench::Ratio{3, 4, "hits", "lookups"});
  expect_near(r.lines().back().value, 0.75, "ratio value");
  expect(r.lines().back().note == "3 hits / 4 lookups", "ratio base text");
  r.add_ratio("empty", perfbench::Ratio{0, 0, "a", "b"});
  expect_near(r.lines().back().value, 0.0, "0 / 0 reads 0");
  for (const auto& m : r.lines()) {
    if (m.unit == "ratio") {
      expect(m.note.find(" / ") != std::string::npos,
             m.name + " carries its base");
    }
  }
  expect(throws([&] { r.add("hit_ratio", 1.0, "count"); }),
         "a metric name is used once");
  expect(throws([&] { r.add("nan", std::nan(""), "s"); }),
         "non-finite values are refused");
}

void test_json_line() {
  perfbench::Report r;
  r.add("search_s", 0.1234567890123, "s");
  const std::string j = r.json(true, 5, 0);
  expect(j ==
             "{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
             "\"metrics\": {\"search_s\": {\"value\": 0.1234567890123, "
             "\"unit\": \"s\"}}}",
         "json line: " + j);
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_tail_rule();
  test_ratios_carry_base();
  test_json_line();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
