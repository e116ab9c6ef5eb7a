#ifndef SPNET_COMMON_MUTEX_H_
#define SPNET_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace spnet {

/// std::mutex wrapped as a Clang thread-safety *capability*, so members
/// declared GUARDED_BY(mu_) are compiler-checked on Clang builds. The
/// standard library's mutex carries no capability attributes, which is the
/// only reason this wrapper exists; it adds no state and no behavior.
///
/// Locking idioms, in preference order:
///   1. `MutexLock lock(&mu_);` — RAII, covers a whole scope.
///   2. Explicit Lock()/Unlock() — only where a scope cannot express the
///      region (ThreadPool::WorkerLoop drops the lock around chunk
///      execution).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII holder for a Mutex (SCOPED_CAPABILITY teaches the analysis that
/// construction acquires and destruction releases).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to spnet::Mutex. Wait() requires the mutex
/// held (compiler-enforced on Clang) and, like std::condition_variable,
/// atomically releases it while blocked and reacquires it before
/// returning. Implemented by adopting the already-held std::mutex into a
/// unique_lock for the duration of the wait and releasing ownership
/// afterwards, so the caller's lock discipline is undisturbed.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace spnet

#endif  // SPNET_COMMON_MUTEX_H_
