// Deadline scheduler behind TaskGroup::submit_after: a claim-blocked
// search unit parks here instead of holding a thread in a sleep/poll loop
// while a peer holds its DARR claim, and the executor's threads keep
// scoring other candidates. TimerWheel::shared() is the process's one
// wheel, created on first use; its timer thread fires each callback when
// its deadline is due (the callback queues the task in its group).
//
// Executor observability: every wheel writes the process-wide
// timerwheel.* metric family —
//   timerwheel.scheduled         counter    entries scheduled
//   timerwheel.fired             counter    callbacks fired
//   timerwheel.outstanding       gauge      scheduled, not yet fired
//   timerwheel.fire_lag_seconds  histogram  fire time − deadline per entry
// The destructor subtracts entries it drops (never-due callbacks), so a
// cleanly drained process leaves timerwheel.outstanding at zero.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace coda {

/// A minimal one-thread timer: schedule(delay, fn) runs fn on the timer
/// thread once the delay elapses. Entries with equal deadlines fire in
/// schedule order. Callbacks should be cheap (hand off to a pool); the
/// destructor drops entries that have not come due yet, so owners must
/// drain their work before destroying the wheel.
class TimerWheel {
 public:
  TimerWheel();
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// The process-wide wheel, created on the first call.
  static TimerWheel& shared();

  /// Schedules `fn` to run `delay` from now on the timer thread.
  void schedule(std::chrono::milliseconds delay, std::function<void()> fn);

  /// Entries scheduled but not yet fired.
  std::size_t pending() const;

 private:
  struct Entry {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq = 0;  ///< tie-break: equal deadlines fire in order
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, Later> entries_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  obs::Counter* scheduled_metric_ = nullptr;
  obs::Counter* fired_metric_ = nullptr;
  obs::Gauge* outstanding_metric_ = nullptr;
  obs::Histogram* fire_lag_metric_ = nullptr;
  std::thread thread_;
};

}  // namespace coda
