// Copyright (c) 2026 The tsq Authors.

#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace tsq {
namespace engine {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;  // the standard allows an unknown count
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TSQ_CHECK_MSG(!stop_, "Submit on a stopping ThreadPool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t drivers = std::min(size(), n);
  if (drivers == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> cursor{0};
  // Per-call completion (not pool-wide Wait): this caller returns as soon
  // as its own drivers have drained, so concurrent ParallelFor calls on a
  // shared pool don't convoy on each other's work. A driver exits only
  // after the cursor passes n, so once every driver has exited, all n
  // indices are claimed *and* finished — at which point this frame (and
  // the locals the drivers reference) may safely die.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t exited = 0;
  for (size_t d = 0; d < drivers; ++d) {
    Submit([&cursor, &fn, n, &done_mutex, &done_cv, &exited, drivers] {
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (++exited == drivers) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&exited, drivers] { return exited == drivers; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace engine
}  // namespace tsq
