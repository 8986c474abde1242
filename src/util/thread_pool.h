// A small fixed-size worker pool for data-parallel sections.
//
// Deliberately minimal: submit() enqueues a task, wait_idle() blocks until
// every submitted task has finished.  Callers that need deterministic
// results shard their work up front, give each shard its own accumulator
// state, and merge the shards in index order after wait_idle() — the pool
// itself never imposes an ordering.  Tasks must not throw; the first
// escaped exception is captured and rethrown from wait_idle().
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nwlb::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.  Thread-safe.
  void submit(std::function<void()> task) NWLB_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and no task is running, then rethrows
  /// the first exception any task escaped with (if any).
  void wait_idle() NWLB_EXCLUDES(mutex_);

  /// A sensible worker count for this process: the CPUs it may run on
  /// (util::usable_cpus, `fallback` when unknown) capped at `cap`.
  static int default_workers(int cap = 8, int fallback = 4);

 private:
  void worker_loop() NWLB_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ NWLB_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  std::size_t in_flight_ NWLB_GUARDED_BY(mutex_) = 0;
  std::exception_ptr first_error_ NWLB_GUARDED_BY(mutex_);
  bool stopping_ NWLB_GUARDED_BY(mutex_) = false;
};

}  // namespace nwlb::util
