// Copyright (c) 2026 The tsq Authors.

#include "core/delta_index.h"

#include <algorithm>

#include "core/feature.h"

namespace tsq {

DeltaIndex::Chunk::Chunk(size_t dims)
    : coords(kChunkEntries * dims, 0.0), ready(kChunkEntries, 0) {}

DeltaIndex::DeltaIndex(SeriesId base, size_t dims)
    : base_(base), dims_(dims), chunks_(kMaxChunks) {
  for (auto& slot : chunks_) slot.store(nullptr, std::memory_order_relaxed);
}

DeltaIndex::~DeltaIndex() {
  for (auto& slot : chunks_) delete slot.load(std::memory_order_relaxed);
}

std::unique_ptr<DeltaIndex> DeltaIndex::Compact(const DeltaIndex& old,
                                                SeriesId cutoff) {
  TSQ_DCHECK(cutoff >= old.base_);
  auto fresh = std::make_unique<DeltaIndex>(cutoff, old.dims_);
  const uint64_t from_slot = cutoff - old.base_;
  // Walk every allocated chunk; copy ready slots at or above the cutoff.
  // Runs under the writer mutex, so ready flags and coords are stable.
  for (size_t c = 0; c < kMaxChunks; ++c) {
    const Chunk* src = old.chunk(c);
    if (src == nullptr) continue;
    for (size_t i = 0; i < kChunkEntries; ++i) {
      if (!src->ready[i]) continue;
      const uint64_t slot = c * kChunkEntries + i;
      if (slot < from_slot) continue;
      const double* p = src->coords.data() + i * old.dims_;
      spatial::Point point(p, p + old.dims_);
      Status s = fresh->Put(old.base_ + slot, point);
      TSQ_DCHECK(s.ok());
      (void)s;
    }
  }
  return fresh;
}

Status DeltaIndex::Put(SeriesId id, const spatial::Point& point) {
  if (id < base_) {
    return Status::InvalidArgument("delta Put below base id");
  }
  if (point.size() != dims_) {
    return Status::InvalidArgument("delta Put dimension mismatch");
  }
  // Queries scan delta points as point-MBRs, which a NaN cannot form.
  TSQ_RETURN_IF_ERROR(CheckFinite(point, "delta point"));
  const uint64_t slot = id - base_;
  const size_t chunk_index = slot / kChunkEntries;
  if (chunk_index >= kMaxChunks) {
    return Status::OutOfRange("delta index full — merge required");
  }
  Chunk* c = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (c == nullptr) {
    c = new Chunk(dims_);
    // Release so a reader that learns of this chunk's slots through the
    // visible watermark also sees the chunk pointer and its contents.
    chunks_[chunk_index].store(c, std::memory_order_release);
  }
  const size_t entry = slot % kChunkEntries;
  std::copy(point.begin(), point.end(), c->coords.begin() + entry * dims_);
  c->ready[entry] = 1;
  high_water_ = std::max(high_water_, slot + 1);

  // Advance the dense watermark over every contiguously ready slot. Single
  // writer (external mutex), so a plain scan + release store suffices; the
  // release publishes every coordinate written above to acquire readers.
  uint64_t v = visible_.load(std::memory_order_relaxed);
  while (v < high_water_) {
    const Chunk* vc = chunks_[v / kChunkEntries].load(std::memory_order_relaxed);
    if (vc == nullptr || !vc->ready[v % kChunkEntries]) break;
    ++v;
  }
  visible_.store(v, std::memory_order_release);
  return Status::OK();
}

}  // namespace tsq
