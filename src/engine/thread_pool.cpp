// Copyright (c) 2026 The tsq Authors.

#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
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

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t max_drivers) {
  if (n == 0) return;
  const size_t drivers = std::min(max_drivers == 0 ? size() : max_drivers, n);
  if (drivers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // The helpers share this call's state by ownership, never by reference
  // into this frame: a helper that starts after the call returned finds
  // the cursor exhausted and leaves without touching fn. Finished indices
  // are counted under the mutex, so once the count reaches n every fn(i)
  // has returned and happens-before this call's return.
  struct Call {
    std::atomic<size_t> cursor{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    size_t done = 0;
  };
  const auto call = std::make_shared<Call>();
  // Claims indices until the cursor passes n; returns how many it ran.
  const auto drive = [n](Call* c, const std::function<void(size_t)>* f) {
    size_t ran = 0;
    for (size_t i; (i = c->cursor.fetch_add(1, std::memory_order_relaxed)) < n;
         ++ran) {
      (*f)(i);
    }
    return ran;
  };
  for (size_t d = 1; d < drivers; ++d) {
    Submit([call, drive, f = &fn, n] {
      const size_t ran = drive(call.get(), f);
      if (ran == 0) return;
      std::lock_guard<std::mutex> lock(call->mutex);
      call->done += ran;
      if (call->done == n) call->done_cv.notify_all();
    });
  }
  const size_t ran = drive(call.get(), &fn);
  std::unique_lock<std::mutex> lock(call->mutex);
  call->done += ran;
  call->done_cv.wait(lock, [&call, n] { return call->done == n; });
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
