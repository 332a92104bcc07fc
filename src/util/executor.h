// A plain lane pool shared by the concurrent layers.
//
// The SessionRouter (and the ShardedRouter over it) multiplexes many
// sessions' jobs across one pool with Post. Oracle rounds are evaluated
// inline on the lane that asks them: learner rounds are a few dozen
// questions wide, far below where sharding one round pays.
//
// Design points:
//   * An Executor of concurrency c ≥ 2 owns c worker threads that pop one
//     FIFO queue under one mutex. Post pushes and wakes one idle worker.
//   * Concurrency 1 is the inline fallback: no threads are spawned and
//     Post invokes the task synchronously. A sequential build and a
//     1-lane pool behave identically, which the differential tests
//     exploit.
//
// DefaultConcurrency() — the lane count an Executor(0) gets — honours the
// QHORN_THREADS environment variable and falls back to
// std::thread::hardware_concurrency(). Pools are owned by their layer
// (the SessionRouter owns the service pool); there is deliberately no
// process-global pool.

#ifndef QHORN_UTIL_EXECUTOR_H_
#define QHORN_UTIL_EXECUTOR_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/checked_mutex.h"

namespace qhorn {

class Executor {
 public:
  /// Concurrency resolved from the QHORN_THREADS environment variable when
  /// set (clamped to [1, 256]), else std::thread::hardware_concurrency().
  static int DefaultConcurrency();

  /// `lanes` ≤ 0 means DefaultConcurrency(). A pool of concurrency c ≥ 2
  /// spawns c workers; concurrency 1 spawns none and runs tasks inline.
  explicit Executor(int lanes = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Lanes that run tasks concurrently.
  int concurrency() const { return concurrency_; }

  /// Enqueues `task` for asynchronous execution. At concurrency 1 the task
  /// runs inline before Post returns. Tasks must not leak exceptions onto
  /// their lane; in particular the JobSuspended continuation signal
  /// (src/util/suspend.h) must be caught by the job runner inside the
  /// task — a suspension reaching the executor aborts with a diagnostic.
  void Post(std::function<void()> task);

 private:
  void WorkerLoop();

  int concurrency_ = 1;
  std::vector<std::thread> workers_;
  // Tasks always run with mutex_ released.
  Mutex mutex_{"executor", LockRank::kExecutor};
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ QHORN_GUARDED_BY(mutex_);
  bool stop_ QHORN_GUARDED_BY(mutex_) = false;
};

}  // namespace qhorn

#endif  // QHORN_UTIL_EXECUTOR_H_
