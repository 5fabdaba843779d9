// Copyright (c) 2026 The tsq Authors.

#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "obs/trace.h"

namespace tsq {

namespace {

/// The pool can be transiently out of frames when more threads hold pins
/// than it owns frames (pins are short — a LoadNode deserialize — so the
/// state clears in microseconds). Fetch retries over a bounded window
/// (yields, then 100us sleeps: roughly 0.4s in total) before reporting
/// exhaustion, so only a *persistent* all-pinned pool (callers holding
/// pins forever) surfaces as an error.
constexpr int kAcquireRetries = 4096;
constexpr int kYieldsBeforeSleep = 64;

/// Bound on optimistic hit-path rounds before falling back to the mutex;
/// a round only fails when a concurrent pin/unpin/eviction races the CAS.
constexpr int kOptimisticSpins = 64;

/// Sentinel for an erased directory slot (never a valid page id: ids are
/// bounded by the file's page count).
constexpr PageId kDirTombstone = ~PageId{0};

bool IsOdd(uint64_t state) { return (state & BufferFrame::kVersionInc) != 0; }

void ExhaustionBackoff(int attempt) {
  if (attempt < kYieldsBeforeSleep) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Directory slot hash: Fibonacci hashing on the raw id spreads the
/// sequential ids a tree build writes, keeping probe chains short.
size_t DirHash(PageId id, size_t mask) {
  return static_cast<size_t>((id * uint64_t{0x9E3779B97F4A7C15}) >> 17) & mask;
}

/// Waits for another thread's in-flight load (or transition) of `id` on
/// `frame` to settle: returns once the version is even again or the frame
/// has been repurposed for a different page. Futex-style: bounded spin,
/// then yield, then short sleeps — the loader publishes with a release
/// store the moment its pread returns.
void WaitForFrameTransition(const BufferFrame& frame, PageId id) {
  for (int i = 0;; ++i) {
    const uint64_t s = frame.state.load(std::memory_order_acquire);
    if (!IsOdd(s)) return;
    if (frame.id.load(std::memory_order_acquire) != id) return;
    if (i < kYieldsBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    frame_ = other.frame_;
    id_ = other.id_;
    other.frame_ = nullptr;
  }
  return *this;
}

const Page* PageHandle::page() const {
  TSQ_CHECK_MSG(valid(), "access through an invalid PageHandle");
  return &frame_->page;
}

void PageHandle::Release() {
  if (frame_ != nullptr) {
    // While pins > 0 the version is frozen, so a plain decrement cannot
    // race a transition; release ordering keeps this pin's reads of the
    // bytes before the evictor's claim, which the next load overwrites.
    frame_->state.fetch_sub(1, std::memory_order_release);
    frame_ = nullptr;
  }
}

BufferPool::BufferPool(PageFile* file, size_t capacity)
    : file_(file), capacity_(capacity) {
  TSQ_CHECK(file != nullptr);
  TSQ_CHECK_MSG(capacity >= 1, "buffer pool needs at least one frame");
  frames_ = std::make_unique<BufferFrame[]>(capacity);
  free_frames_.reserve(capacity);
  // Descending, so frame 0 is handed out first (FIFO fill order).
  for (size_t i = capacity; i > 0; --i) free_frames_.push_back(i - 1);
  const size_t dir_size = std::bit_ceil(std::max<size_t>(8, 4 * capacity));
  dir_ = std::make_unique<DirSlot[]>(dir_size);
  dir_mask_ = dir_size - 1;
  dir_empty_ = dir_size;
}

size_t BufferPool::DirLookup(PageId id) const {
  const size_t mask = dir_mask_;
  size_t slot = DirHash(id, mask);
  for (size_t probe = 0; probe <= mask; ++probe, slot = (slot + 1) & mask) {
    const PageId sid = dir_[slot].id.load(std::memory_order_acquire);
    if (sid == id) {
      return dir_[slot].frame.load(std::memory_order_relaxed);
    }
    if (sid == kInvalidPageId) return kNoFrame;  // empty slot ends the chain
    // Tombstone or another id: keep probing.
  }
  return kNoFrame;
}

void BufferPool::DirInsert(PageId id, size_t frame_idx) {
  // Erasures leave tombstones, and tombstones consume the empty slots that
  // terminate probe chains; rebuild from the frames before the table
  // degrades to full scans. The rebuild repopulates from frame ids, and
  // callers set the frame's id before inserting its mapping — so the entry
  // being inserted may already be present afterwards.
  if (dir_empty_ * 4 < dir_mask_ + 1) {
    DirRebuild();
    if (DirLookup(id) == frame_idx) return;
  }
  const size_t mask = dir_mask_;
  size_t slot = DirHash(id, mask);
  for (;; slot = (slot + 1) & mask) {
    const PageId sid = dir_[slot].id.load(std::memory_order_relaxed);
    if (sid == kInvalidPageId || sid == kDirTombstone) {
      if (sid == kInvalidPageId) --dir_empty_;
      dir_[slot].frame.store(static_cast<uint32_t>(frame_idx),
                             std::memory_order_relaxed);
      // Publishing the id last makes the slot visible to lock-free readers
      // only once the frame index is in place.
      dir_[slot].id.store(id, std::memory_order_release);
      return;
    }
  }
}

void BufferPool::DirErase(PageId id) {
  const size_t mask = dir_mask_;
  size_t slot = DirHash(id, mask);
  for (size_t probe = 0; probe <= mask; ++probe, slot = (slot + 1) & mask) {
    const PageId sid = dir_[slot].id.load(std::memory_order_relaxed);
    if (sid == id) {
      dir_[slot].id.store(kDirTombstone, std::memory_order_release);
      return;
    }
    if (sid == kInvalidPageId) return;  // not present
  }
}

void BufferPool::DirRebuild() {
  const size_t size = dir_mask_ + 1;
  for (size_t i = 0; i < size; ++i) {
    dir_[i].id.store(kInvalidPageId, std::memory_order_release);
  }
  dir_empty_ = size;
  // Every cached page — including ones mid-load, whose directory entry
  // waiters key off — is recorded on its frame; claimed-for-eviction
  // frames were erased and had their id replaced in the same critical
  // section, so frame ids are exactly the live mappings here.
  for (size_t i = 0; i < capacity_; ++i) {
    const PageId id = frames_[i].id.load(std::memory_order_relaxed);
    if (id != kInvalidPageId) DirInsert(id, i);
  }
}

size_t BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    const size_t idx = free_frames_.back();
    free_frames_.pop_back();
    BufferFrame& f = frames_[idx];
    uint64_t s = f.state.load(std::memory_order_relaxed);
    // A free frame has no directory entry, so no optimistic pinner can
    // reach it; the claim cannot be contended.
    const bool claimed = f.state.compare_exchange_strong(
        s, s + BufferFrame::kVersionInc, std::memory_order_acq_rel);
    TSQ_CHECK_MSG(claimed && !IsOdd(s) && (s & BufferFrame::kPinMask) == 0,
                  "free frame was pinned or in transition");
    return idx;
  }
  // Clock sweep. 3*n steps: one lap may only clear referenced bits and a
  // racing hit can re-protect a frame, so give the hand slack before
  // declaring the pool exhausted (the caller retries transients anyway).
  const size_t n = capacity_;
  for (size_t step = 0; step < 3 * n; ++step) {
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    BufferFrame& f = frames_[idx];
    uint64_t s = f.state.load(std::memory_order_acquire);
    if (IsOdd(s) || (s & BufferFrame::kPinMask) != 0) continue;
    if (f.id.load(std::memory_order_relaxed) == kInvalidPageId) continue;
    if (f.referenced.exchange(false, std::memory_order_relaxed)) {
      continue;  // second chance
    }
    if (!f.state.compare_exchange_strong(s, s + BufferFrame::kVersionInc,
                                         std::memory_order_acq_rel)) {
      continue;  // lost to a concurrent pin
    }
    // Claimed: version is odd, optimistic pinners bounce off. Unmap the
    // old page so the directory never points a new mapping-taker at a
    // frame being repurposed; its bytes are a clean copy of the file's,
    // so dropping them loses nothing.
    DirErase(f.id.load(std::memory_order_relaxed));
    ++obs::MutableThisThreadIndexCounters().evictions;
    return idx;
  }
  return kNoFrame;
}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  // A Fetch classifies itself exactly once — as a hit (we pinned a frame
  // someone had cached or finished loading) or a miss (we went to claim a
  // frame ourselves) — no matter how many optimistic retries or
  // exhaustion backoffs follow, so per-thread deltas stay exact.
  bool counted = false;
  int exhausted_attempts = 0;
  for (;;) {
    // ---- optimistic lock-free hit path ----
    const BufferFrame* wait_frame = nullptr;
    for (int spin = 0; spin < kOptimisticSpins; ++spin) {
      const size_t idx = DirLookup(id);
      if (idx == kNoFrame) break;
      BufferFrame& f = frames_[idx];
      uint64_t s = f.state.load(std::memory_order_acquire);
      if (IsOdd(s)) {
        // In transition. If it is *our* page being loaded, wait on the
        // frame (not the mutex); anything else resolves via the slow path.
        if (f.id.load(std::memory_order_acquire) == id) wait_frame = &f;
        break;
      }
      if (f.id.load(std::memory_order_acquire) != id) break;  // stale slot
      if ((s & BufferFrame::kPinMask) == BufferFrame::kPinMask) break;
      // The CAS succeeding proves the version — and therefore the frame's
      // identity — did not change since the reads above.
      if (f.state.compare_exchange_weak(s, s + 1,
                                        std::memory_order_acq_rel)) {
        f.referenced.store(true, std::memory_order_relaxed);
        if (!counted) ++obs::MutableThisThreadIndexCounters().hits;
        return PageHandle(&f, id);
      }
      // Lost a pin/unpin/eviction race; re-resolve.
    }
    if (wait_frame != nullptr) {
      // The page appears to be materializing courtesy of another thread's
      // disk read. Classification is deferred to the outcome: if the load
      // completes, the optimistic pin above counts this fetch as a hit —
      // v2 accounting, where the waiter queued on the pool mutex and
      // found the page cached. If the odd frame was actually mid-eviction
      // of this page (or the load fails), the retry falls through to the
      // slow path and counts the miss it really is. Either way the stall
      // is I/O-shaped and charged to the query's pool-wait stage.
      obs::StageTimer wait_span(obs::Stage::kPoolWait);
      WaitForFrameTransition(*wait_frame, id);
      continue;
    }

    // ---- slow path: miss (or a stale/contended directory view) ----
    std::unique_lock<std::mutex> lock(mutex_);
    if (DirLookup(id) != kNoFrame) {
      // Raced with another fetcher who cached (or is loading) the page;
      // resolve it on the lock-free path.
      lock.unlock();
      continue;
    }
    if (!counted) {
      ++obs::MutableThisThreadIndexCounters().misses;
      counted = true;
    }
    const size_t idx = AcquireFrame();
    if (idx == kNoFrame) {
      lock.unlock();
      if (exhausted_attempts >= kAcquireRetries) {
        return Status::FailedPrecondition(
            "buffer pool exhausted: all frames pinned");
      }
      ExhaustionBackoff(exhausted_attempts++);
      continue;
    }
    BufferFrame& f = frames_[idx];
    // Publish the in-progress load: odd version (from the claim), id set,
    // directory entry visible — then give the lock back. Other traffic
    // flows during the read; fetchers of this page wait on `f`.
    f.id.store(id, std::memory_order_release);
    DirInsert(id, idx);
    lock.unlock();

    Status read_status;
    {
      // The miss I/O itself: charged to pool_wait so a descent that
      // faults pages reports tree CPU and disk stall separately.
      obs::StageTimer read_span(obs::Stage::kPoolWait);
      read_status = file_->Read(id, &f.page);
    }
    if (!read_status.ok()) {
      std::lock_guard<std::mutex> relock(mutex_);
      DirErase(id);
      f.id.store(kInvalidPageId, std::memory_order_release);
      const uint64_t s = f.state.load(std::memory_order_relaxed);
      f.state.store(s + BufferFrame::kVersionInc, std::memory_order_release);
      free_frames_.push_back(idx);
      return read_status;
    }
    ++obs::MutableThisThreadIndexCounters().disk_reads;
    f.referenced.store(false, std::memory_order_relaxed);
    // Release-publish with our pin already counted; waiters' acquire loads
    // of `state` see the page bytes the pread wrote.
    const uint64_t s = f.state.load(std::memory_order_relaxed);
    f.state.store((s + BufferFrame::kVersionInc) | 1,
                  std::memory_order_release);
    return PageHandle(&f, id);
  }
}

}  // namespace tsq
