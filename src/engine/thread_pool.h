// Copyright (c) 2026 The tsq Authors.
//
// A fixed-size worker pool for the batch query engine. Deliberately
// minimal: FIFO task queue, Submit + Wait, no futures — the engine keeps
// results in caller-owned slots, so tasks only need to run, not return.
// Tasks must not throw (tsq never throws across library boundaries;
// fallible work records a Status in its result slot instead).

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
/// Submit may be called from any thread, including from inside a task.
/// Wait blocks until every task submitted so far has finished; it may be
/// called from any non-worker thread (a worker calling Wait would
/// deadlock on itself). The destructor waits for outstanding tasks, then
/// joins the workers.
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

  /// Runs fn(i) for every i in [0, n) — one driver per worker, up to n,
  /// stealing indices from a shared atomic cursor — and blocks until all
  /// n calls have finished. `fn` is invoked concurrently and must be
  /// reentrant; each index is claimed by exactly one driver. When only
  /// one driver would run (n == 1, or a one-worker pool) the caller is
  /// that driver: fn runs on the calling thread in index order and no
  /// task is queued, so a single query costs no hand-off. Otherwise
  /// completion is tracked per call (not via pool-wide Wait), so
  /// concurrent ParallelFor callers sharing the pool each return as soon
  /// as their own work drains. Like Wait, must be called from a
  /// non-worker thread.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

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
