//===- ThreadPool.cpp - Persistent worker pool --------------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ocl/ThreadPool.h"

#include "support/FaultInject.h"
#include "support/Retry.h"

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

using namespace lift;
using namespace lift::ocl;

unsigned ocl::resolveThreadCount(int Requested) {
  if (Requested > 0)
    return static_cast<unsigned>(Requested);
  if (const char *Env = std::getenv("LIFT_THREADS")) {
    long V = std::strtol(Env, nullptr, 10);
    if (V > 0)
      return static_cast<unsigned>(V);
  }
  unsigned H = std::thread::hardware_concurrency();
  return H != 0 ? H : 1u;
}

namespace {

/// Parked worker threads woken per dispatch generation. Workers never
/// terminate (the pool lives for the process); they are detached so
/// process exit does not block on the park loop.
class PoolImpl {
  std::mutex M;
  std::condition_variable WakeCV;  // signals a new generation to workers
  std::condition_variable DoneCV;  // signals completion to the dispatcher
  std::mutex RunM;                 // serializes run() callers

  const std::function<void(unsigned)> *Job = nullptr;
  uint64_t Generation = 0;
  unsigned JobWorkers = 0; // worker indices 1..JobWorkers-1 participate
  unsigned Pending = 0;    // pool threads still inside the current job
  unsigned Spawned = 0;    // pool threads created so far

  void workerLoop(unsigned Index) {
    uint64_t SeenGeneration = 0;
    while (true) {
      const std::function<void(unsigned)> *MyJob = nullptr;
      {
        std::unique_lock<std::mutex> L(M);
        WakeCV.wait(L, [&] {
          return Generation != SeenGeneration && Index < JobWorkers;
        });
        SeenGeneration = Generation;
        MyJob = Job;
      }
      (*MyJob)(Index);
      {
        std::lock_guard<std::mutex> L(M);
        if (--Pending == 0)
          DoneCV.notify_all();
      }
    }
  }

  bool ensureSpawned(unsigned Needed) {
    // Called with M held. Worker index 0 is the dispatcher itself. Threads
    // spawned before a failure stay parked (no job was published for them)
    // and are reused by the next dispatch.
    while (Spawned < Needed) {
      unsigned Index = Spawned + 1;
      try {
        std::thread([this, Index] { workerLoop(Index); }).detach();
      } catch (const std::system_error &) {
        return false;
      }
      Spawned = Index;
    }
    return true;
  }

  /// Waits for all pool workers of the current generation to leave the job
  /// before the job object (a pointer into the dispatcher's frame) can go
  /// out of scope.
  void awaitGeneration() {
    std::unique_lock<std::mutex> L(M);
    DoneCV.wait(L, [&] { return Pending == 0; });
    Job = nullptr;
    JobWorkers = 0;
  }

public:
  bool tryRun(unsigned Workers, const std::function<void(unsigned)> &Fn) {
    if (Workers <= 1) {
      Fn(0);
      return true;
    }
    std::lock_guard<std::mutex> RunLock(RunM);
    // Pool bring-up (thread creation, or an injected PoolStart fault) is
    // transient: retry it under the deterministic backoff policy before
    // giving up. Fn is never invoked on a failed attempt; a false return
    // still means "degrade to serial" for the caller.
    {
      retry::Policy P = retry::Policy::fromEnv();
      retry::Backoff B(P);
      unsigned Attempts = P.MaxAttempts ? P.MaxAttempts : 1;
      bool Up = false;
      for (unsigned A = 1; A <= Attempts; ++A) {
        bool Tripped = fault::shouldFail(fault::Site::PoolStart);
        if (!Tripped) {
          std::lock_guard<std::mutex> L(M);
          Tripped = !ensureSpawned(Workers - 1);
        }
        if (!Tripped) {
          Up = true;
          break;
        }
        if (A < Attempts)
          retry::sleepFor(B.nextDelayUs());
      }
      if (!Up)
        return false;
    }
    {
      std::lock_guard<std::mutex> L(M);
      Job = &Fn;
      JobWorkers = Workers;
      Pending = Workers - 1;
      ++Generation;
      WakeCV.notify_all();
    }
    // The dispatcher participates as worker 0. If its share throws, the
    // generation is already published, so the join below must still happen
    // — skipping it would leave Pending counted (a lost wakeup for the
    // next dispatch) and workers running a job object about to be
    // destroyed.
    try {
      Fn(0);
    } catch (...) {
      awaitGeneration();
      throw;
    }
    awaitGeneration();
    return true;
  }
};

} // namespace

// Intentionally leaked: parked workers wait on the pool's condition
// variable for the life of the process, and destroying it during static
// destruction would block process exit (pthread_cond_destroy waits for
// the waiters, which never leave).
static PoolImpl &poolImpl() {
  static PoolImpl &Impl = *new PoolImpl;
  return Impl;
}

ThreadPool &ThreadPool::global() {
  static ThreadPool P;
  return P;
}

bool ThreadPool::tryRun(unsigned Workers,
                        const std::function<void(unsigned)> &Fn) {
  return poolImpl().tryRun(Workers, Fn);
}

void ThreadPool::run(unsigned Workers,
                     const std::function<void(unsigned)> &Fn) {
  if (!tryRun(Workers, Fn))
    Fn(0);
}
