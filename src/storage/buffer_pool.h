// Copyright (c) 2026 The tsq Authors.
//
// Read-only page cache over a PageFile with a lock-free hit path. The
// R-tree reads every page through the pool; its hit/miss/eviction and
// disk read counts (obs::IndexCounters, kept per thread), with the
// build's page writes, are how tsq measures the "number of disk
// accesses" the paper reports for index traversals.

#ifndef TSQ_STORAGE_BUFFER_POOL_H_
#define TSQ_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace tsq {

/// One cache frame (internal to BufferPool; exposed at namespace scope only
/// so PageHandle can operate on it without reaching through the pool).
///
/// `state` packs [version:48 | pins:16] into one atomic word. The version
/// is seqlock-style: an *odd* version (bit 16 set) means the frame is in
/// transition — being loaded from disk or evicted — and its
/// identity/bytes must not be trusted; an even version means the frame
/// stably holds page `id`. Pinning is a CAS on the whole word conditioned
/// on an even version, so a successful pin proves the frame was not
/// repurposed between lookup and pin. Unpinning is a plain fetch_sub: while
/// pins > 0 the version cannot change (eviction claims require pins == 0),
/// so the decrement can never race a transition. `id` changes only while
/// the version is odd. `referenced` is the clock/second-chance bit, set on
/// every hit and cleared by the sweep.
struct BufferFrame {
  static constexpr uint64_t kPinMask = (uint64_t{1} << 16) - 1;
  static constexpr uint64_t kVersionInc = uint64_t{1} << 16;

  std::atomic<uint64_t> state{0};  // even version, zero pins
  std::atomic<PageId> id{kInvalidPageId};
  std::atomic<bool> referenced{false};
  Page page;
};

/// RAII pin on a cached page. While a PageHandle is alive the frame cannot
/// be evicted. Move-only; unpins at destruction. The cached bytes are
/// read-only: a page changes only by its file being written anew.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }

  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;

  TSQ_DISALLOW_COPY(PageHandle);

  /// True iff this handle pins a page.
  bool valid() const { return frame_ != nullptr; }

  /// The pinned page id.
  PageId id() const { return id_; }

  /// Byte access to the cached frame.
  const Page* page() const;

  /// Explicitly unpins (also called by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferFrame* frame, PageId id) : frame_(frame), id_(id) {}

  BufferFrame* frame_ = nullptr;
  PageId id_ = kInvalidPageId;
};

/// Fixed-capacity read-only page cache with one clock (second-chance)
/// eviction sweep over all of its frames. A frame is only ever a copy of
/// its page on disk, so eviction drops it and writes nothing.
///
/// Concurrency contract (v3):
///
/// * **Hits are lock-free.** Fetch of a cached page takes no mutex: it
///   reads the page directory (an open-addressed table of atomic slots),
///   validates the frame's seqlock version, and pins with a single CAS
///   (see BufferFrame). There is no LRU list to update — recency is a
///   per-frame `referenced` bit swept lazily by the clock hand at eviction
///   time — so the hot path mutates nothing but the pin word.
/// * **Misses do I/O without the pool mutex.** A miss takes the mutex
///   only to claim a frame (a never-used one or the clock sweep's
///   victim) and publish it in "loading" state (odd version, id set,
///   directory entry inserted), then *drops the mutex* around the
///   PageFile read and publishes the loaded frame with a release store.
///   Hits — and other misses — proceed while the read is in flight.
///   Concurrent fetchers of the in-flight page wait on the frame itself
///   (bounded spin, then yield/sleep), not on the mutex, and count as
///   hits: the miss and the disk read belong to the thread that
///   performed them.
/// * The mutex still serializes the admin paths: frame claim, eviction
///   and directory mutation. Byte access *through a held PageHandle* is
///   outside any mutex: a pinned frame cannot be evicted and frames never
///   move, so the pointer stays valid. The underlying PageFile is
///   thread-safe (positioned I/O), so misses read side by side.
///
/// A miss fails only on its own read, or on exhaustion: every frame
/// pinned (or mid-load), since a page is never refused while any frame
/// could take it. Fetch yield-then-sleep-retries over a bounded window
/// (~hundreds of ms) before reporting exhaustion, so a pool that is only
/// *transiently* full of pins stalls briefly instead of failing the
/// query; a pool whose every frame stays pinned surfaces
/// FailedPrecondition.
///
/// The pool never writes: a tree's pages reach its file by the build
/// (rtree::RStarTree::Build), beneath the pool, before any of them is
/// fetched, so a pool over a freshly built file starts cold.
///
/// Counters: each Fetch counts one hit or one miss, and each eviction
/// and page read counts once, in the obs::IndexCounters of the thread
/// that caused it (obs/trace.h); the pool keeps no counter of its own.
/// A concurrent fetcher that waits out another thread's load of the same
/// page counts a hit: the miss and the disk read belong to the loader.
/// For a never-re-referenced page sequence the clock evicts in arrival
/// order, so the pool then holds exactly the last `capacity()` pages, as
/// an LRU list would.
class BufferPool {
 public:
  /// Creates a pool of `capacity` frames over `file` (non-owning: the file
  /// must outlive the pool).
  BufferPool(PageFile* file, size_t capacity);

  TSQ_DISALLOW_COPY_AND_MOVE(BufferPool);

  /// Pins page `id`, reading it from disk on a miss. Lock-free when the
  /// page is cached (see class comment).
  Result<PageHandle> Fetch(PageId id);

  /// Number of frames the pool may hold.
  size_t capacity() const { return capacity_; }

  /// The underlying file: the build writes a tree's pages to it, and
  /// nothing writes them again.
  PageFile* file() { return file_; }

 private:
  /// One open-addressed directory slot: page id -> frame index. id is
  /// kInvalidPageId (0) when never used ("empty", stops probes) and
  /// kDirTombstone when erased (probes continue through it). Slots are
  /// written only under the pool mutex and read lock-free; a reader
  /// always re-validates against the frame itself, so stale slots cost a
  /// retry, never a wrong pin.
  struct DirSlot {
    std::atomic<PageId> id{kInvalidPageId};
    std::atomic<uint32_t> frame{0};
  };

  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  /// Lock-free probe of the directory; returns a frame index or kNoFrame.
  /// The result is a hint until validated against the frame.
  size_t DirLookup(PageId id) const;
  /// Directory writes; caller holds the mutex.
  void DirInsert(PageId id, size_t frame_idx);
  void DirErase(PageId id);
  void DirRebuild();

  /// Claims a frame (a never-used one, else the clock sweep's victim,
  /// whose page is dropped) and returns it with an odd (in-transition)
  /// version. Caller holds the mutex. kNoFrame when every frame is
  /// pinned or mid-transition (transient under concurrency).
  size_t AcquireFrame();

  PageFile* file_;
  const size_t capacity_;
  // Serializes misses, eviction and directory writes. Never taken on
  // the hit path.
  std::mutex mutex_;
  std::unique_ptr<BufferFrame[]> frames_;
  std::unique_ptr<DirSlot[]> dir_;
  size_t dir_mask_ = 0;   // dir size - 1 (power of two)
  size_t dir_empty_ = 0;  // never-used slots left; rebuild when low
  std::vector<size_t> free_frames_;
  size_t clock_hand_ = 0;
};

}  // namespace tsq

#endif  // TSQ_STORAGE_BUFFER_POOL_H_
