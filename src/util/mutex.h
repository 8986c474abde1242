// Annotated synchronization primitives (DESIGN.md §11).
//
// util::Mutex wraps std::mutex as a clang thread-safety *capability* so
// members can be declared NWLB_GUARDED_BY(mutex_) and lock-discipline
// violations become compile errors under `clang++ -Wthread-safety`
// (libstdc++'s std::mutex carries no capability attributes, so it cannot
// play that role itself).  Runtime behaviour is exactly std::mutex.
//
// util::ThreadRole is a *zero-cost* capability: acquiring it is a no-op
// at run time, but the analysis treats it like a lock.  It expresses
// phase disciplines that have no mutex — e.g. "this accumulator may only
// be touched during the reconcile window, after the replay shards have
// joined" (sim::ReplaySimulator) — and turns violations of that
// discipline into compile errors instead of TSan roulette.
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace nwlb::util {

/// std::mutex as a clang thread-safety capability.
class NWLB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NWLB_ACQUIRE() { m_.lock(); }
  void unlock() NWLB_RELEASE() { m_.unlock(); }
  bool try_lock() NWLB_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// RAII lock for Mutex (std::lock_guard with capability annotations).
class NWLB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NWLB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NWLB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A capability with no run-time state: acquire/release are free, but the
/// analysis enforces that NWLB_GUARDED_BY(role) state is only touched by
/// code that holds the role.  assert_held() lets single-threaded
/// accessors (stats readers called between replay windows) state the
/// precondition without forcing every caller to thread the capability.
class NWLB_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void acquire() NWLB_ACQUIRE() {}
  void release() NWLB_RELEASE() {}
  void assert_held() const NWLB_ASSERT_CAPABILITY() {}
};

/// RAII scope for a ThreadRole ("this block runs in the role's phase").
class NWLB_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(ThreadRole& role) NWLB_ACQUIRE(role) : role_(role) {
    role_.acquire();
  }
  ~RoleGuard() NWLB_RELEASE() { role_.release(); }

  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;

 private:
  ThreadRole& role_;
};

}  // namespace nwlb::util
