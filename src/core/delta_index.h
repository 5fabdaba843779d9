// Copyright (c) 2026 The tsq Authors.
//
// The delta index: the small, append-friendly half of the epoch-published
// index pair (see IndexSnapshot in index_snapshot.h). Where the main
// R*-tree is immutable once published, the delta absorbs the feature
// points of freshly ingested series until a background merge folds them
// into a fresh tree. It is the structure that lets queries run without
// any reader-writer lock: readers only ever consult a dense visible
// prefix published with release stores, mirroring the relation's
// lock-free id directory (storage/relation.h).
//
// Concurrency contract:
//
// * One externally serialized writer. Put may only be called under the
//   owner's delta writer mutex (Database::delta_put_mutex_); concurrent
//   InsertBatch calls finish their relation appends in any order, so
//   Puts still arrive out of id order — each Put lands in its id's slot
//   and marks it ready, and the dense visible watermark advances over
//   every contiguously ready slot.
// * Lock-free readers. visible() is an acquire load; every slot below it
//   has fully written coordinates (the watermark's release store orders
//   the plain coordinate writes before it). Readers never look at ready
//   flags and never take a lock.
// * Slots are addressed by id: slot = id - base(). A batch that fails
//   mid-append never marks its slots ready, so the watermark freezes at
//   the last dense prefix — exactly the relation's poisoning behavior.
// * Compact (merge-time) runs under the same writer mutex and copies
//   every ready slot at or above the merge cutoff into a fresh delta
//   whose base is the cutoff, preserving in-flight batches that landed
//   after the merge chose its cutoff.

#ifndef TSQ_CORE_DELTA_INDEX_H_
#define TSQ_CORE_DELTA_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "series/time_series.h"
#include "spatial/point.h"

namespace tsq {

/// Append-friendly store of feature points for ids >= base(), with a
/// dense lock-free visible watermark. Fixed-capacity chunked slab: chunks
/// never move once allocated, so readers index without locks.
class DeltaIndex {
 public:
  static constexpr size_t kChunkEntries = 1024;
  static constexpr size_t kMaxChunks = 4096;  // ~4.2M unmerged entries

  /// An empty delta for ids starting at `base`, holding `dims`-dimensional
  /// feature points.
  DeltaIndex(SeriesId base, size_t dims);
  TSQ_DISALLOW_COPY_AND_MOVE(DeltaIndex);
  ~DeltaIndex();

  /// A fresh delta with base `cutoff` carrying every ready slot of `old`
  /// with id >= cutoff (the entries a merge up to `cutoff` did not fold).
  /// Caller must hold the writer mutex (no concurrent Put on `old`).
  /// Requires old.base() <= cutoff.
  static std::unique_ptr<DeltaIndex> Compact(const DeltaIndex& old,
                                             SeriesId cutoff);

  /// Stores the feature point for `id` and advances the dense watermark
  /// over every contiguously ready slot. Caller must hold the writer
  /// mutex. Fails with OutOfRange when the slot is beyond the
  /// fixed capacity (the caller merges and retries) and InvalidArgument
  /// on an id below base() or a dimension mismatch.
  Status Put(SeriesId id, const spatial::Point& point);

  /// First id this delta covers: slot s holds id base() + s.
  SeriesId base() const { return base_; }

  /// Feature dimensionality.
  size_t dims() const { return dims_; }

  /// Dense visible watermark in slots: every slot below it is fully
  /// written and readable (acquire). Monotone under a live writer.
  uint64_t visible() const { return visible_.load(std::memory_order_acquire); }

  /// The dims() coordinates of the feature point in `slot`, read in place
  /// (a scan copies nothing per slot). Requires slot < visible() for
  /// lock-free readers (or, under the writer mutex, any ready slot).
  const double* CoordinatesAt(uint64_t slot) const {
    const Chunk* c = chunk(slot / kChunkEntries);
    TSQ_DCHECK(c != nullptr);
    return c->coords.data() + (slot % kChunkEntries) * dims_;
  }

 private:
  struct Chunk {
    explicit Chunk(size_t dims);
    std::vector<double> coords;   // kChunkEntries * dims
    std::vector<uint8_t> ready;   // writer-only; readers gate on visible()
  };

  Chunk* chunk(size_t index) const {
    return chunks_[index].load(std::memory_order_acquire);
  }

  const SeriesId base_;
  const size_t dims_;
  std::vector<std::atomic<Chunk*>> chunks_;
  std::atomic<uint64_t> visible_{0};
  uint64_t high_water_ = 0;  // writer-only: one past the highest ready slot
};

}  // namespace tsq

#endif  // TSQ_CORE_DELTA_INDEX_H_
