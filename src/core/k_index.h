// Copyright (c) 2026 The tsq Authors.
//
// The k-index of [AFS93] as the paper uses it (Sec. 4): an R*-tree over the
// first k Fourier coefficients of every stored series, extended with the
// paper's transformed traversal. KIndex bundles the index's storage stack
// (page file, buffer pool, R*-tree) with the feature-space logic, exposing
// candidate enumeration: a range search keeps a leaf point only when it
// passes the exact leaf test of the query's RangeFilter, so candidates
// are the points inside Lemma 1's ball, not inside its bounding
// rectangle. Postprocessing (Algorithm 2 step 3) lives in core/queries.h,
// which combines KIndex with the sequence Relation.

#ifndef TSQ_CORE_K_INDEX_H_
#define TSQ_CORE_K_INDEX_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/feature.h"
#include "core/feature_space.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tsq {

/// Construction parameters for a KIndex.
struct KIndexOptions {
  FeatureLayout layout;
  std::string path = "tsq_index.pages";  ///< backing page file
  size_t page_size = kDefaultPageSize;
  size_t buffer_pool_frames = 1024;
};

/// A k-coefficient spatial index over series features.
class KIndex {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(KIndex);
  ~KIndex() = default;

  /// One series' index point (FeatureExtractor::ToPoint) under its id.
  using PointEntry = std::pair<SeriesId, spatial::Point>;

  /// Writes a fresh index file at options.path over every point at once,
  /// by STR packing (see rtree::RStarTree::Build), the only way an index
  /// is written: each page once, straight to the file. STR tiles the
  /// spectral dims only, from layout().spectral_offset(); the mean/std
  /// dims stay in every MBR. The points come from the database:
  /// BuildIndex turns each stored record into its point as its segment
  /// scan reads it, and a merge carries the published tree's leaf points
  /// forward with the delta's. A point with a non-finite coordinate fails
  /// with InvalidArgument before any rectangle is formed from it. The
  /// file's header is written by Flush.
  static Result<std::unique_ptr<KIndex>> Build(const KIndexOptions& options,
                                               size_t series_length,
                                               std::vector<PointEntry> points);

  /// Reopens, read-only, an index previously built at options.path. The
  /// layout in `options` must match the one the index was built with (tsq
  /// stores the tree geometry, not the layout; a mismatch surfaces as a
  /// dimensionality error). The tree's meta page is always the first page
  /// of the file.
  static Result<std::unique_ptr<KIndex>> Open(const KIndexOptions& options,
                                              size_t series_length);

  /// Algorithm 2's search step over the tree: appends every leaf entry
  /// that `filter` keeps (FeatureSpace::Keeps: inside the search
  /// rectangle, then within the filter radius). With a `map`, MBRs and
  /// leaf points pass through it first (Algorithm 1); without one no
  /// transformation machinery is touched at all (the baseline curve of
  /// Figures 8/9).
  Status RangeCandidates(const RangeFilter& filter,
                         const spatial::AffineMap* map,
                         std::vector<SeriesId>* out) const;

  /// Streams the tree's items in ascending lower-bound distance order
  /// under `metric` (optionally through `map`): each node before it is
  /// read (`id` empty) and each data entry (`id` its series); bounds
  /// arrive SQUARED (see rtree::RStarTree::NearestNeighborsStream). The
  /// callback returns false to stop, and a stop at a node costs no read
  /// of its page. Backbone of the optimal multi-step kNN in
  /// core/queries.h, whose stop rule sees nodes as well as entries.
  Status StreamNearest(const rtree::NnMetric& metric,
                       const spatial::AffineMap* map,
                       const rtree::RStarTree::NnCallback& emit) const;

  const FeatureSpace& space() const { return space_; }
  const FeatureExtractor& extractor() const { return space_.extractor(); }
  const FeatureLayout& layout() const { return space_.layout(); }
  size_t series_length() const { return series_length_; }
  uint64_t size() const { return tree_->size(); }

  /// The underlying tree / pool, exposed for benchmarks and white-box
  /// tests.
  rtree::RStarTree* tree() { return tree_.get(); }
  const rtree::RStarTree* tree() const { return tree_.get(); }
  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }

  /// Syncs a built index's file (PageFile::Sync): its header, then every
  /// page, on stable storage. An opened index is read-only, so Flush on
  /// it fails.
  Status Flush();

 private:
  KIndex(FeatureLayout layout, size_t series_length)
      : space_(layout), series_length_(series_length) {}

  FeatureSpace space_;
  size_t series_length_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<rtree::RStarTree> tree_;
};

}  // namespace tsq

#endif  // TSQ_CORE_K_INDEX_H_
