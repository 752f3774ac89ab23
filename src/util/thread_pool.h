// The process-wide executor. It scores candidate folds in parallel
// (Section III: "Different predictive models can be run in parallel") and
// splits large GEMMs by rows. ThreadPool::shared() holds one worker per
// hardware thread and is created by its first call, never at static
// initialization, so a process may fork before any thread starts.
//
// Every task belongs to a TaskGroup: a search's units and folds, or one
// GEMM's row chunks. A group caps how many of its tasks run at once, and
// its wait() runs the group's own queued tasks on the waiting thread until
// every task of the group has returned. A search's caller therefore helps
// with its own folds, and a GEMM split inside a fold finishes even when
// every worker is busy. A waiter never runs another group's task, and
// workers leave one slot of the cap to a waiter that is blocked, so it
// works instead of idling at the cap.
// submit_after() parks a task on TimerWheel::shared() and counts it as
// pending until it has run.
//
// Executor observability: every pool writes the process-wide pool.*
// metric family —
//   pool.tasks               counter    tasks queued (a task parked on the
//                                       timer wheel when it comes due)
//   pool.queue_depth         gauge      tasks queued, not yet started
//   pool.queue_wait_seconds  histogram  queue → start latency per task
//   pool.task_seconds        histogram  task run time, on a worker or on
//                                       a group's waiter
//   pool.utilization         gauge      worker busy time / (workers ×
//                                       lifetime), refreshed as each
//                                       worker task returns; tasks a
//                                       waiter runs are not worker time
// Per-pool worker busy time also feeds the utilization() accessor.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace coda {

class TaskGroup;

/// A fixed set of workers running the tasks of TaskGroups, oldest first
/// among those their group's cap lets start. The destructor drains
/// outstanding tasks.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool (hardware_concurrency workers), created on the
  /// first call.
  static ThreadPool& shared();

  /// The pool whose worker runs the calling thread, else shared(). Work
  /// split from inside a task stays on that task's pool.
  static ThreadPool& current();

  std::size_t size() const { return workers_.size(); }

  /// Fraction of worker capacity spent running tasks so far: summed worker
  /// task time / (workers × pool lifetime), clamped to [0, 1]. Approximate
  /// while tasks are in flight (their partial run time is not yet
  /// counted).
  double utilization() const;

 private:
  friend class TaskGroup;

  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  using Queue = std::deque<Task>;

  // Each helper below is called with `mutex_` held.
  void push_locked(TaskGroup* group, std::function<void()> fn);
  /// Wakes `group`'s waiter if it may start a task or nothing of the group
  /// is pending any more.
  void wake_waiter_locked(TaskGroup& group);
  /// Wakes a worker if one may start a task of `group`.
  void wake_worker_locked(TaskGroup& group);
  /// The oldest queued task a worker may start — or, given `group`, the
  /// oldest of that group its waiter may start — or end().
  Queue::iterator runnable_locked(const TaskGroup* group);
  /// Pops `task`, runs it with `lock` released and returns its group.
  TaskGroup& run_locked(std::unique_lock<std::mutex>& lock,
                        Queue::iterator task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;  ///< guards the queue and every group's counters
  std::condition_variable cv_;
  Queue queue_;
  bool stopping_ = false;

  const std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> busy_ns_{0};
  obs::Counter* tasks_metric_ = nullptr;
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Histogram* queue_wait_metric_ = nullptr;
  obs::Histogram* task_seconds_metric_ = nullptr;
  obs::Gauge* utilization_metric_ = nullptr;
};

/// A set of tasks on one pool that can be waited for together.
class TaskGroup {
 public:
  /// At most `max_running` of the group's tasks run at once, the waiter's
  /// included; 0 = no cap.
  explicit TaskGroup(ThreadPool& pool, std::size_t max_running = 0);
  /// Waits for the group without rethrowing: an owner that skipped wait()
  /// is leaving on an exception already.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> fn);

  /// Queues `fn` once `delay` has passed on TimerWheel::shared(). The task
  /// is pending from now on: wait() does not return before it has run.
  void submit_after(std::chrono::milliseconds delay, std::function<void()> fn);

  /// Runs the group's queued tasks on the calling thread (within the cap)
  /// and sleeps while other threads run the rest, until no task of the
  /// group is queued, running or parked. Then rethrows the first exception
  /// a task threw, if any.
  void wait();

 private:
  friend class ThreadPool;

  ThreadPool& pool_;
  const std::size_t cap_;
  // Guarded by pool_.mutex_.
  std::size_t pending_ = 0;  ///< queued, running or parked on the wheel
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  std::size_t sleeping_ = 0;  ///< waiters blocked in wait()
  std::exception_ptr error_;
  std::condition_variable cv_;  ///< a task of the group queued or returned
};

}  // namespace coda
