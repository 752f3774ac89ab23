// Tests for the util layer: hashing, strings, CSV, serialization, RNG,
// thread pool and task groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/kernels.h"
#include "src/obs/metrics.h"

#include "src/util/csv.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"

namespace coda {
namespace {

TEST(Hash, KnownFnv1aValues) {
  // FNV-1a reference: hash of empty input is the offset basis.
  EXPECT_EQ(fnv1a(""), Fnv1a::kOffset);
  // "a" = 0x61: (offset ^ 0x61) * prime.
  EXPECT_EQ(fnv1a("a"), (Fnv1a::kOffset ^ 0x61ULL) * Fnv1a::kPrime);
}

TEST(Hash, StableAcrossCalls) {
  EXPECT_EQ(fnv1a("cooperative"), fnv1a("cooperative"));
  EXPECT_NE(fnv1a("cooperative"), fnv1a("cooperativf"));
}

TEST(Hash, IncrementalMatchesOneShot) {
  Fnv1a h;
  h.update("foo").update("bar");
  EXPECT_EQ(h.digest(), fnv1a("foobar"));
}

TEST(Hash, HexRendering) {
  EXPECT_EQ(hash_to_hex(0), "0000000000000000");
  EXPECT_EQ(hash_to_hex(0xdeadbeefULL), "00000000deadbeef");
}

TEST(StringUtil, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b"}, "->"), "a->b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("pipeline", "pipe"));
  EXPECT_FALSE(starts_with("pipe", "pipeline"));
}

TEST(StringUtil, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
}

TEST(Csv, RoundTrip) {
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"plain", "1"}, {"with,comma", "2"}, {"with\"quote", "3"}};
  const auto parsed = parse_csv(to_csv(table), /*has_header=*/true);
  EXPECT_EQ(parsed.header, table.header);
  EXPECT_EQ(parsed.rows, table.rows);
}

TEST(Csv, ParsesQuotedFields) {
  const auto t = parse_csv("a,\"b,c\",\"d\"\"e\"\n", false);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0], (std::vector<std::string>{"a", "b,c", "d\"e"}));
}

TEST(Csv, SkipsBlankLines) {
  const auto t = parse_csv("a,b\n\nc,d\n", false);
  EXPECT_EQ(t.rows.size(), 2u);
}

TEST(Serialization, RoundTripAllTypes) {
  ByteWriter w;
  w.write_u8(7);
  w.write_u32(123456);
  w.write_u64(1ULL << 40);
  w.write_i64(-42);
  w.write_double(3.25);
  w.write_bool(true);
  w.write_string("hello");
  w.write_bytes({1, 2, 3});
  w.write_doubles({0.5, -0.5});

  ByteReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_u64(), 1ULL << 40);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_double(), 3.25);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.read_doubles(), (std::vector<double>{0.5, -0.5}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialization, TruncatedBufferThrows) {
  ByteWriter w;
  w.write_string("hello");
  Bytes truncated = w.buffer();
  truncated.resize(truncated.size() - 2);
  ByteReader r(truncated);
  EXPECT_THROW(r.read_string(), DecodeError);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(5);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, UniformIntRange) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, Mix64StreamKnownAnswers) {
  // SplitMix64 from state 0: each draw is mix64(state), then state += γ.
  std::uint64_t state = 0;
  for (const std::uint64_t want :
       {0xe220a8397b1dcdafULL, 0x6e789e6aa1b965f4ULL, 0x06c45d188009454fULL}) {
    EXPECT_EQ(mix64(state), want);
    state += kSplitMixGamma;
  }
  EXPECT_EQ(unit(0), 0.0);
  EXPECT_EQ(unit(~std::uint64_t{0}), 1.0 - 0x1.0p-53);
}

TEST(Rng, SplitIsIndependent) {
  Rng parent(42);
  Rng child = parent.split();
  // The child should not replay the parent's stream.
  Rng parent2(42);
  parent2.split();
  EXPECT_DOUBLE_EQ(parent.uniform(), parent2.uniform());
  (void)child;
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.submit([&counter] { ++counter; });
  group.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  // A plain int: wait() must order the task's write before the read.
  ThreadPool pool(2);
  int sum = 0;
  TaskGroup group(pool);
  group.submit([&sum] { sum = 20 + 22; });
  group.wait();
  EXPECT_EQ(sum, 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  group.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 5; ++i) group.submit([&ran] { ++ran; });
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 5);  // the other tasks still ran
  group.wait();              // rethrown once
}

TEST(ThreadPool, SharedPoolIsOnePoolSizedToTheHardware) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_EQ(&pool, &ThreadPool::shared());
  EXPECT_EQ(&ThreadPool::current(), &pool);  // not on a worker
  EXPECT_EQ(pool.size(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

// Runs `fn` as a task on the only worker of `pool`, so that nobody but
// that task can run the groups it waits on.
template <typename Fn>
void on_the_one_worker(ThreadPool& pool, Fn fn) {
  ASSERT_EQ(pool.size(), 1u);
  std::atomic<bool> started{false};
  bool on_worker = false;
  TaskGroup outer(pool);
  outer.submit([&] {
    on_worker = &ThreadPool::current() == &pool;
    started = true;
    fn();
  });
  // Wait only once the worker has taken the task: a waiter would run it.
  while (!started.load()) std::this_thread::yield();
  outer.wait();
  EXPECT_TRUE(on_worker);
}

TEST(TaskGroup, TaskWaitingOnItsOwnGroupFinishesOnOneWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  on_the_one_worker(pool, [&] {
    TaskGroup group(pool, 2);
    for (int i = 0; i < 10; ++i) group.submit([&counter] { ++counter; });
    group.wait();
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(TaskGroup, CapOfOneNeverRunsTwoTasksAtOnce) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> most{0};
  TaskGroup group(pool, 1);
  for (int i = 0; i < 64; ++i) {
    group.submit([&] {
      const int now = ++running;
      int seen = most.load();
      while (now > seen && !most.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      --running;
    });
  }
  group.wait();  // the waiter runs tasks too, under the same cap
  EXPECT_EQ(most.load(), 1);
}

TEST(TaskGroup, WaitReturnsOnlyAfterEveryTaskReturned) {
  // Plain bools: wait() must order each task's last write before the
  // reads below (TSan checks the happens-before, not just the values).
  constexpr std::size_t kTasks = 48;
  ThreadPool pool(3);
  auto done = std::make_unique<bool[]>(kTasks);
  TaskGroup group(pool, 2);
  for (std::size_t i = 0; i < kTasks; ++i) {
    auto task = [&done, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      done[i] = true;
    };
    // Every third task is parked on the timer wheel first.
    if (i % 3 == 0) {
      group.submit_after(std::chrono::milliseconds(1 + i % 5), task);
    } else {
      group.submit(task);
    }
  }
  group.wait();
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_TRUE(done[i]) << i;
}

TEST(TaskGroup, SplitGemmInsideATaskOnOneWorkerMatchesUnsplit) {
  // 64x256x256 is 8.4 MFLOP, above the row-split threshold: the GEMM cuts
  // its rows into a group on the task's pool, whose one worker is busy
  // running the GEMM's own caller.
  constexpr std::size_t m = 64, n = 256, k = 256;
  Rng rng(5);
  std::vector<double> a(m * k), b(k * n);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> split(m * n, 0.0), unsplit(m * n, 0.0);
  ThreadPool pool(1);
  const std::uint64_t tasks_before = obs::counter("pool.tasks").value();
  on_the_one_worker(pool, [&] {
    kernels::gemm_nn(m, n, k, a.data(), k, b.data(), n, split.data(), n);
  });
  // The outer task plus at least two row chunks.
  EXPECT_GE(obs::counter("pool.tasks").value() - tasks_before, 3u);
  // One row per call stays below the threshold, so it never splits.
  for (std::size_t r = 0; r < m; ++r) {
    kernels::gemm_nn(1, n, k, a.data() + r * k, k, b.data(), n,
                     unsplit.data() + r * n, n);
  }
  EXPECT_EQ(split, unsplit);
}

}  // namespace
}  // namespace coda
