// Copyright (c) 2026 The tsq Authors.

#include "core/k_index.h"

namespace tsq {

Result<std::unique_ptr<KIndex>> KIndex::Create(const KIndexOptions& options,
                                               size_t series_length) {
  TSQ_RETURN_IF_ERROR(options.layout.Validate(series_length));
  auto index = std::unique_ptr<KIndex>(
      new KIndex(options.layout, series_length));
  TSQ_ASSIGN_OR_RETURN(index->file_,
                       PageFile::Create(options.path, options.page_size));
  index->pool_ = std::make_unique<BufferPool>(index->file_.get(),
                                              options.buffer_pool_frames);
  TSQ_ASSIGN_OR_RETURN(
      index->tree_,
      rtree::RStarTree::Create(index->pool_.get(), options.layout.dims(),
                               options.rtree));
  return index;
}

Result<std::unique_ptr<KIndex>> KIndex::Open(const KIndexOptions& options,
                                             size_t series_length) {
  TSQ_RETURN_IF_ERROR(options.layout.Validate(series_length));
  auto index = std::unique_ptr<KIndex>(
      new KIndex(options.layout, series_length));
  TSQ_ASSIGN_OR_RETURN(index->file_, PageFile::Open(options.path));
  index->pool_ = std::make_unique<BufferPool>(index->file_.get(),
                                              options.buffer_pool_frames);
  // KIndex::Create allocates the meta page first, so it is always page 1.
  TSQ_ASSIGN_OR_RETURN(
      index->tree_,
      rtree::RStarTree::Open(index->pool_.get(), /*meta_page=*/1,
                             options.rtree));
  if (index->tree_->dims() != options.layout.dims()) {
    return Status::InvalidArgument(
        "index on disk has " + std::to_string(index->tree_->dims()) +
        " dims but the layout describes " +
        std::to_string(options.layout.dims()));
  }
  return index;
}

Status KIndex::BulkLoad(std::vector<PointEntry> points) {
  std::vector<rtree::Entry> entries;
  entries.reserve(points.size());
  for (auto& [id, point] : points) {
    TSQ_RETURN_IF_ERROR(CheckFinite(point, "indexed series feature"));
    // The point becomes the rect's upper corner, a copy its lower one.
    spatial::Point lo = point;
    rtree::Entry e;
    e.rect = spatial::Rect(std::move(lo), std::move(point));
    e.id = id;
    entries.push_back(std::move(e));
  }
  std::vector<PointEntry>().swap(points);  // free before STR's slabs
  // STR tiles the spectral dims only: the mean/std dims are bounded by
  // no query without a window, and the kNN metric ignores them. Ranges
  // with a mean/std window pay for it; docs/ARCHITECTURE.md (the merge)
  // gives both sides of the trade as measured.
  return tree_->BulkLoad(std::move(entries), layout().spectral_offset());
}

Status KIndex::RangeCandidates(const RangeFilter& filter,
                               const spatial::AffineMap* map,
                               std::vector<SeriesId>* out) const {
  TSQ_CHECK(out != nullptr);
  const auto keep = [this, &filter, out](uint64_t id,
                                         const spatial::Rect& point) {
    if (space_.Keeps(filter, point)) out->push_back(id);
    return true;
  };
  if (map == nullptr) return tree_->Search(filter.rect, keep);
  return tree_->SearchTransformed(*map, filter.rect, keep);
}

Status KIndex::StreamNearest(const rtree::NnMetric& metric,
                             const spatial::AffineMap* map,
                             const rtree::RStarTree::NnCallback& emit) const {
  return tree_->NearestNeighborsStream(metric, map, emit);
}

Status KIndex::Flush() {
  TSQ_RETURN_IF_ERROR(tree_->SaveMeta());
  return pool_->FlushAll();
}

}  // namespace tsq
