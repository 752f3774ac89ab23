#include "src/util/thread_pool.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/util/timer_wheel.h"

namespace coda {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The pool whose worker_loop runs on this thread, if any.
thread_local ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Process-wide families (shared by every pool in the process, like the
  // retry.* and net.fault.* families): registering here pins the metric
  // references for lock-free hot-path writes and makes the names appear
  // in exports even for runs where the pool stays idle.
  tasks_metric_ = &obs::counter("pool.tasks");
  queue_depth_metric_ = &obs::gauge("pool.queue_depth");
  queue_wait_metric_ = &obs::histogram("pool.queue_wait_seconds");
  task_seconds_metric_ = &obs::histogram("pool.task_seconds");
  utilization_metric_ = &obs::gauge("pool.utilization");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  utilization_metric_->set(utilization());
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_worker_of != nullptr ? *t_worker_of : shared();
}

double ThreadPool::utilization() const {
  const double lifetime =
      seconds_between(created_, std::chrono::steady_clock::now());
  if (lifetime <= 0.0 || workers_.empty()) return 0.0;
  const double busy =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return std::clamp(busy / (lifetime * static_cast<double>(workers_.size())),
                    0.0, 1.0);
}

void ThreadPool::push_locked(TaskGroup* group, std::function<void()> fn) {
  if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
  queue_.push_back(
      Task{group, std::move(fn), std::chrono::steady_clock::now()});
  ++group->queued_;
  tasks_metric_->inc();
  queue_depth_metric_->add(1.0);
  wake_waiter_locked(*group);
  wake_worker_locked(*group);
}

void ThreadPool::wake_waiter_locked(TaskGroup& g) {
  if (g.sleeping_ > 0 &&
      (g.pending_ == 0 || (g.queued_ > 0 && g.running_ < g.cap_))) {
    g.cv_.notify_all();
  }
}

void ThreadPool::wake_worker_locked(TaskGroup& g) {
  // A sleeping waiter has a slot held for it and takes the next queued
  // task; a worker is woken only for the ones beyond it.
  if (g.queued_ > g.sleeping_ && g.running_ + g.sleeping_ < g.cap_) {
    cv_.notify_one();
  }
}

ThreadPool::Queue::iterator ThreadPool::runnable_locked(
    const TaskGroup* group) {
  // A worker leaves one slot per sleeping waiter to that waiter, so a
  // group's caller runs its tasks instead of idling at the cap.
  return std::find_if(queue_.begin(), queue_.end(), [group](const Task& t) {
    const TaskGroup& g = *t.group;
    return group == nullptr ? g.running_ + g.sleeping_ < g.cap_
                            : &g == group && g.running_ < g.cap_;
  });
}

TaskGroup& ThreadPool::run_locked(std::unique_lock<std::mutex>& lock,
                                  Queue::iterator task) {
  std::function<void()> fn = std::move(task->fn);
  const auto enqueued = task->enqueued;
  TaskGroup& group = *task->group;
  queue_.erase(task);
  --group.queued_;
  ++group.running_;
  lock.unlock();
  const auto start = std::chrono::steady_clock::now();
  queue_depth_metric_->add(-1.0);
  queue_wait_metric_->observe(seconds_between(enqueued, start));
  std::exception_ptr thrown;
  try {
    fn();
  } catch (...) {
    thrown = std::current_exception();
  }
  task_seconds_metric_->observe(
      seconds_between(start, std::chrono::steady_clock::now()));
  fn = nullptr;  // drop the captures outside the lock
  lock.lock();
  if (thrown && !group.error_) group.error_ = thrown;
  --group.running_;
  --group.pending_;
  wake_waiter_locked(group);
  return group;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (TaskGroup* done = nullptr;;) {
    const Queue::iterator task = runnable_locked(nullptr);
    // The slot the last task freed goes to this worker's next task, unless
    // that task is of another group: then wake a worker for the freed one.
    // (`done` is alive: its waiter cannot return before this unlocks.)
    if (done != nullptr && (task == queue_.end() || task->group != done)) {
      wake_worker_locked(*done);
    }
    done = nullptr;
    if (task == queue_.end()) {
      if (stopping_) return;
      cv_.wait(lock);
      continue;
    }
    // Busy time is counted per worker task, so a task nested in another
    // (a GEMM chunk its fold runs while waiting) is not counted twice.
    const auto start = std::chrono::steady_clock::now();
    done = &run_locked(lock, task);
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()),
        std::memory_order_relaxed);
    utilization_metric_->set(utilization());
  }
}

TaskGroup::TaskGroup(ThreadPool& pool, std::size_t max_running)
    : pool_(pool),
      cap_(max_running == 0 ? std::numeric_limits<std::size_t>::max()
                            : max_running) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // The owner skipped wait() because an exception is leaving its scope;
    // that one propagates, and this later one is dropped.
  }
}

void TaskGroup::submit(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(pool_.mutex_);
  pool_.push_locked(this, std::move(fn));
  ++pending_;
}

void TaskGroup::submit_after(std::chrono::milliseconds delay,
                             std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    ++pending_;
  }
  // `this` outlives the entry: wait() cannot return while it is pending.
  TimerWheel::shared().schedule(delay, [this, fn = std::move(fn)] {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    pool_.push_locked(this, fn);
  });
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  while (pending_ > 0) {
    const ThreadPool::Queue::iterator task = pool_.runnable_locked(this);
    if (task == pool_.queue_.end()) {
      ++sleeping_;
      cv_.wait(lock);
      --sleeping_;
    } else {
      pool_.run_locked(lock, task);
    }
  }
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace coda
