#ifndef TDB_COMMON_THREAD_POOL_H_
#define TDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace tdb {

/// A fixed-size worker pool for fanning independent work across threads:
/// the shard router's 2PC coordinator runs a cross-shard commit's
/// per-shard prepares on one (txn_coordinator_threads).
///
/// Thread counts <= 1 create no worker threads at all: every task runs
/// inline on the calling thread, in submission order, so a pool is a
/// drop-in replacement for the serial code path (and `ThreadPool(0)` has
/// zero overhead beyond a virtual-free function call).
///
/// The pool itself is thread-safe, including the blocking helpers:
/// ParallelFor and friends keep all per-call state (work index, failure
/// flag, futures) on the caller's stack and each call joins only its own
/// submitted tasks, so several threads may drive ParallelFor on one pool
/// concurrently — calls simply share the worker set, and every caller
/// also participates in its own work instead of idling. The shard router
/// relies on this: concurrent cross-shard commits drive their prepares
/// through one shared coordinator pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; <= 1 means inline execution.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. Pending submitted tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 when running inline).
  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Submits one task. The returned future becomes ready when the task
  /// finishes and rethrows any exception the task threw. With no workers
  /// the task runs inline before this returns (future already ready).
  /// ParallelFor is built on it; the stores call only ParallelFor.
  /// If the caller has an active trace context it is captured here and
  /// re-installed around the task, so worker-side spans stay parented
  /// under the submitting operation (see common/trace.h).
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(0), fn(1), ..., fn(n-1) across the workers plus the calling
  /// thread and returns when all invocations finish. Results keyed by the
  /// index (e.g. writing results[i]) therefore land in submission order
  /// regardless of execution interleaving. The first exception thrown by
  /// any invocation is rethrown on the caller; once a task has thrown,
  /// not-yet-started indexes are skipped.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Status-returning variant: returns OK if every fn(i) returned OK,
  /// otherwise the lowest-index failure among the invocations that ran.
  /// After a failure is observed, not-yet-started indexes may be skipped —
  /// callers needing a fully deterministic "first failure" should collect
  /// per-index results with ParallelFor instead.
  Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
};

}  // namespace tdb

#endif  // TDB_COMMON_THREAD_POOL_H_
