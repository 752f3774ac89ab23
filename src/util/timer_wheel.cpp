#include "src/util/timer_wheel.h"

namespace coda {

TimerWheel::TimerWheel()
    : scheduled_metric_(&obs::counter("timerwheel.scheduled")),
      fired_metric_(&obs::counter("timerwheel.fired")),
      outstanding_metric_(&obs::gauge("timerwheel.outstanding")),
      fire_lag_metric_(&obs::histogram("timerwheel.fire_lag_seconds")),
      thread_([this] { loop(); }) {}

TimerWheel& TimerWheel::shared() {
  static TimerWheel wheel;
  return wheel;
}

TimerWheel::~TimerWheel() {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    dropped = entries_.size();
  }
  cv_.notify_all();
  thread_.join();
  // Entries that never came due are dropped by contract (see the class
  // comment); keep the outstanding gauge consistent with that.
  if (dropped > 0) {
    outstanding_metric_->add(-static_cast<double>(dropped));
  }
}

void TimerWheel::schedule(std::chrono::milliseconds delay,
                          std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push(Entry{std::chrono::steady_clock::now() + delay, next_seq_++,
                        std::move(fn)});
    // Under the queue lock so the fire-side decrement (which pops under
    // this lock first) can never run ahead of it.
    scheduled_metric_->inc();
    outstanding_metric_->add(1.0);
  }
  cv_.notify_all();
}

std::size_t TimerWheel::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void TimerWheel::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (entries_.empty()) {
      cv_.wait(lock, [this] { return stopping_ || !entries_.empty(); });
      continue;
    }
    const auto due = entries_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      // Woken early by a new (possibly earlier) entry or by shutdown; the
      // loop re-reads the top entry either way.
      cv_.wait_until(lock, due);
      continue;
    }
    // The const_cast is safe: the entry is popped immediately after the
    // move, so the queue never observes the moved-from state.
    auto fn = std::move(const_cast<Entry&>(entries_.top()).fn);
    entries_.pop();
    fired_metric_->inc();
    outstanding_metric_->add(-1.0);
    fire_lag_metric_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - due)
            .count());
    lock.unlock();
    fn();
    lock.lock();
  }
}

}  // namespace coda
