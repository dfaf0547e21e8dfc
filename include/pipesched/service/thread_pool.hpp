// Fixed-size worker pool behind SchedulingService::solveBatch's
// cross-request fan-out.
//
// Deliberately minimal: submit() hands a task to the workers and returns a
// future; tasks must not block on other tasks' futures (no work stealing, so
// that would deadlock a full pool). A pool constructed with zero threads runs
// every task inline in submit() — the degenerate form used for strictly
// serial reference runs.
//
// Exception safety (audited, pinned by tests/service/test_thread_pool.cpp):
// a throwing task — std or not — never takes down a worker or the process.
// std::packaged_task stores the exception in the future's shared state;
// future.get() rethrows it, and a discarded future discards it silently.
// Service-level callers convert it into a failed RequestOutcome instead of
// letting it reach the pool (see SchedulingService::solve).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace pipesched::service {

class ThreadPool {
 public:
  /// `threads == 0` => inline execution (no workers spawned).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue: blocks until every submitted task has run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Schedules `task`; the future carries its exception on throw.
  std::future<void> submit(std::function<void()> task);

  /// A sensible default worker count for this machine (>= 1).
  [[nodiscard]] static std::size_t defaultThreadCount();

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pipesched::service
