#include "src/util/executor.h"

#include <cstdlib>

#include "src/util/check.h"
#include "src/util/suspend.h"

namespace qhorn {

namespace {

/// Runs a pool task with the suspension contract enforced: JobSuspended is
/// a round-boundary signal that must be caught at the job runner
/// (SessionRouter) — if one reaches an executor lane the session it
/// belongs to would silently leak, so fail loudly instead of terminating
/// with an opaque unhandled-exception abort.
void RunTask(const std::function<void()>& task) {
  // Tasks must start with no checked locks held: Post() under a lock
  // deadlocks at concurrency 1 (where tasks run inline in the caller),
  // and on a worker lane a held lock could only be a leak from a previous
  // task. Rank ordering alone cannot catch the inline case — no executor
  // mutex is touched on that path — so assert it here.
  LockRankChecker::AssertNoneHeld("an executor task");
  try {
    task();
  } catch (const JobSuspended&) {
    QHORN_CHECK_MSG(false,
                    "JobSuspended escaped onto an executor lane: suspending "
                    "jobs must be run through a continuation-aware runner");
  }
}

}  // namespace

int Executor::DefaultConcurrency() {
  if (const char* env = std::getenv("QHORN_THREADS")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 1) {
      return static_cast<int>(parsed > 256 ? 256 : parsed);
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Executor::Executor(int lanes) {
  concurrency_ = lanes <= 0 ? DefaultConcurrency() : lanes;
  if (concurrency_ == 1) return;
  workers_.reserve(static_cast<size_t>(concurrency_));
  for (int i = 0; i < concurrency_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  // The destructor contract is quiescence, not draining: owners (e.g.
  // SessionRouter::Drain) must retire their work first. Losing a queued
  // task silently would be a caller bug — fail loudly instead.
  MutexLock lock(&mutex_);
  QHORN_CHECK_MSG(tasks_.empty(), "Executor destroyed with tasks still queued");
}

void Executor::Post(std::function<void()> task) {
  QHORN_CHECK(task != nullptr);
  if (workers_.empty()) {
    // Inline fallback: a 1-lane executor is a synchronous one.
    RunTask(task);
    return;
  }
  {
    MutexLock lock(&mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void Executor::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!stop_ && tasks_.empty()) cv_.Wait(&mutex_);
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunTask(task);
  }
}

}  // namespace qhorn
