// Copyright (c) 2026 The tsq Authors.
//
// The fixed-size worker pool a Database runs everything on: its query
// batches, parallel self-join, ingest and index builds, and tsqd's
// requests. Deliberately minimal: FIFO task queue, Submit + Wait, no
// futures — callers keep results in slots they own, so tasks only need
// to run, not return. Tasks must not throw (tsq never throws across
// library boundaries; fallible work records a Status in its result slot
// instead).

#ifndef TSQ_ENGINE_THREAD_POOL_H_
#define TSQ_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"

namespace tsq {
namespace engine {

/// Fixed pool of worker threads draining one shared FIFO queue.
///
/// Submit and ParallelFor may be called from any thread, including from
/// inside a task of this pool. Wait blocks until every task submitted so
/// far has finished; it may be called only from a non-worker thread (a
/// worker calling Wait would wait on itself). The destructor waits for
/// outstanding tasks, then joins the workers.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  TSQ_DISALLOW_COPY_AND_MOVE(ThreadPool);

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every running task has finished.
  void Wait();

  /// Runs fn(i) for every i in [0, n) and returns once all n calls have
  /// finished. `fn` is invoked concurrently and must be reentrant; each
  /// index is claimed by exactly one driver from a shared atomic cursor.
  ///
  /// Drivers: the caller is always one, and up to max_drivers − 1 helper
  /// tasks are queued on the pool (max_drivers counts the caller; 0 means
  /// size()). So no more than max_drivers distinct threads run fn, and
  /// with one driver (n == 1, max_drivers == 1, or a one-worker pool at
  /// the default) fn runs on the caller in index order with no task
  /// queued. The caller never waits for a helper to start: it claims
  /// indices until the cursor is exhausted and then waits only for the
  /// indices helpers already claimed, which are running. A helper that
  /// starts after the cursor is exhausted returns without touching `fn`
  /// or the caller's frame. Hence ParallelFor is safe inside a task of
  /// this pool, even when every worker is busy: the caller alone can
  /// finish all n indices. Concurrent callers sharing the pool each
  /// return as soon as their own indices finish.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_drivers = 0);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // queue non-empty or stopping
  std::condition_variable idle_cv_;  // in_flight_ hit zero
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool stop_ = false;
};

}  // namespace engine
}  // namespace tsq

#endif  // TSQ_ENGINE_THREAD_POOL_H_
