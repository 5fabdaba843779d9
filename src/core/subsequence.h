// Copyright (c) 2026 The tsq Authors.
//
// Subsequence matching in the style of Faloutsos, Ranganathan &
// Manolopoulos [FRM94] — the companion indexing method the paper cites for
// queries like its introduction's "stocks that increased linearly up to
// October 1987, and then crashed": find every *subsequence* of any stored
// series within epsilon of a query pattern.
//
// The ST-index construction:
//   * slide a window of length w over every stored series; each position
//     maps to a point in feature space (first k DFT coefficients of the
//     raw window, rectangular coordinates — the [AFS93] layout);
//   * consecutive window positions form a *trail* through feature space;
//     instead of indexing every point, the trail is cut into pieces and
//     each piece's MBR is stored in the R*-tree (far fewer, fatter
//     entries);
//   * a range query grows the query's feature point by eps (Sec. 3.1
//     rectangle), collects intersecting trail pieces, and verifies every
//     window position in each candidate piece against the full data with
//     an early-abandoning time-domain distance.
// The prefix-distance bound makes the candidate set a superset of the
// answers (no false dismissals), exactly as in the whole-match case.
//
// tsq uses fixed-length trail pieces (a simplification of [FRM94]'s
// adaptive segmentation; the piece length is a tuning knob) and an O(1)
// *sliding DFT* update per window step, resynchronized periodically to
// bound floating-point drift.

#ifndef TSQ_CORE_SUBSEQUENCE_H_
#define TSQ_CORE_SUBSEQUENCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/queries.h"
#include "dft/complex_vec.h"
#include "rtree/rstar_tree.h"
#include "series/time_series.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tsq {

/// Construction parameters for a SubsequenceIndex.
struct SubsequenceIndexOptions {
  /// Window length w: queries must have exactly this length.
  size_t window = 64;
  /// Number of complex DFT coefficients per window (from X_0); the feature
  /// space has 2*coefficients dimensions.
  size_t coefficients = 3;
  /// Window positions per trail piece (one R-tree entry each).
  size_t trail_piece = 16;
  /// Backing page file.
  std::string path = "tsq_subseq.pages";
  size_t page_size = kDefaultPageSize;
  size_t buffer_pool_frames = 1024;
};

/// One subsequence answer: series `id`, window starting at `offset`.
struct SubsequenceMatch {
  SeriesId id = kInvalidSeriesId;
  size_t offset = 0;
  double distance = 0.0;
};

/// Callback used by searches to fetch a stored series' samples by id.
using SeriesFetcher = std::function<Result<RealVec>(SeriesId)>;

/// Computes the unitary DFT feature points of every length-`window`
/// sliding window of `values`, keeping the first `coefficients`
/// coefficients. Exposed for testing (the incremental update must match
/// per-window DFTs). Returns values.size() - window + 1 points.
std::vector<ComplexVec> SlidingWindowSpectra(const RealVec& values,
                                             size_t window,
                                             size_t coefficients);

/// The ST-index: an R*-tree over trail-piece MBRs of sliding-window
/// features, written once by Build. RangeSearch is safe from any number
/// of threads (const traversal over the frozen tree).
class SubsequenceIndex {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(SubsequenceIndex);
  ~SubsequenceIndex() = default;

  /// Indexes every window position of every series in one STR packing of
  /// all their trail pieces. Series are numbered by position, as
  /// ScanSubsequences numbers them: series[i] has id i. Each must be at
  /// least `window` long, and ids must fit in 32 bits (the payload packs
  /// (id, piece start offset) into one u64).
  static Result<std::unique_ptr<SubsequenceIndex>> Build(
      const SubsequenceIndexOptions& options,
      const std::vector<TimeSeries>& series);

  /// Finds all subsequences of length `window` within `epsilon` of
  /// `query` (Euclidean, time domain). `fetch` resolves series ids to
  /// their samples for postprocessing. Results sorted by (id, offset).
  Status RangeSearch(const RealVec& query, double epsilon,
                     const SeriesFetcher& fetch,
                     std::vector<SubsequenceMatch>* out,
                     QueryStats* stats) const;

  /// Number of indexed trail pieces / total window positions.
  uint64_t num_pieces() const { return tree_->size(); }
  uint64_t num_windows() const { return num_windows_; }
  size_t window() const { return options_.window; }

  /// The underlying tree (stats, white-box tests).
  rtree::RStarTree* tree() { return tree_.get(); }
  const rtree::RStarTree* tree() const { return tree_.get(); }

 private:
  explicit SubsequenceIndex(SubsequenceIndexOptions options)
      : options_(std::move(options)) {}

  SubsequenceIndexOptions options_;
  uint64_t num_windows_ = 0;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<rtree::RStarTree> tree_;
};

/// Brute-force subsequence scan (the baseline): every offset of every
/// series, early-abandoning distance. Same answer set as
/// SubsequenceIndex::RangeSearch.
Status ScanSubsequences(const std::vector<TimeSeries>& series, size_t window,
                        const RealVec& query, double epsilon,
                        std::vector<SubsequenceMatch>* out);

}  // namespace tsq

#endif  // TSQ_CORE_SUBSEQUENCE_H_
