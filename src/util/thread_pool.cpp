#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"
#include "util/cpus.h"

namespace nwlb::util {

ThreadPool::ThreadPool(int num_threads) {
  NWLB_CHECK_GE(num_threads, 1, "ThreadPool: need at least one worker");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    const MutexLock lock(mutex_);
    // Explicit wait loop (not the predicate overload): the guarded reads
    // stay in this annotated scope, where the analysis can see the lock.
    while (!(queue_.empty() && in_flight_ == 0)) all_done_.wait(mutex_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) task_ready_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    try {
      task();
    } catch (...) {
      const MutexLock lock(mutex_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    {
      const MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

int ThreadPool::default_workers(int cap, int fallback) {
  return std::max(1, std::min(cap, usable_cpus(fallback)));
}

}  // namespace nwlb::util
