// Copyright (c) 2026 The tsq Authors.
//
// FeatureSpace: the bridge between the transformation language and the
// spatial index. It
//   * converts a FeatureTransform (spectral LinearTransform + optional
//     affine action on the mean/std dims) into the per-dimension AffineMap
//     that Algorithm 1 applies to R-tree MBRs, enforcing the safety
//     theorems (real `a` in Srect, zero `b` in Spol);
//   * provides the NN lower-bound metric in either coordinate space — for
//     Spol this is the exact point-to-annular-sector distance per
//     coefficient, which generalizes MINDIST to polar MBRs, and the
//     point distance itself for a point's coefficients;
//   * computes that point distance (SpectralDistanceSquared), which is
//     also Algorithm 2's leaf test (Keeps).

#ifndef TSQ_CORE_FEATURE_SPACE_H_
#define TSQ_CORE_FEATURE_SPACE_H_

#include <functional>
#include <memory>
#include <optional>

#include "common/status.h"
#include "core/feature.h"
#include "core/search_rect.h"
#include "rtree/rstar_tree.h"
#include "spatial/affine_map.h"
#include "transform/linear_transform.h"

namespace tsq {

/// A similarity transformation lifted to the full feature space: the
/// spectral part acts on the stored DFT coefficients (and must be safe for
/// the chosen coordinate space); the mean/std parts cover [GK95]-style
/// shifts and scales on the two extra dimensions ("despite using the polar
/// representation, we could still have simple shifts", Sec. 5).
struct FeatureTransform {
  /// Full-length (series length n) spectral transform.
  LinearTransform spectral;
  /// Action on the mean dimension: mean -> mean_scale * mean + mean_offset.
  double mean_scale = 1.0;
  double mean_offset = 0.0;
  /// Action on the std dimension: std -> std_scale * std (std has no
  /// meaningful offset).
  double std_scale = 1.0;

  /// Lifts a purely spectral transform (mean/std untouched).
  static FeatureTransform Spectral(LinearTransform t) {
    return FeatureTransform{std::move(t), 1.0, 0.0, 1.0};
  }

  /// [GK95] shift+scale: v -> factor * v + delta on raw samples, which
  /// moves mean to factor*mean + delta and std to |factor|*std while
  /// leaving the normal form — and hence its spectrum — untouched.
  static FeatureTransform ShiftScale(size_t n, double delta, double factor);
};

/// Layout-aware operations over the index feature space.
class FeatureSpace {
 public:
  explicit FeatureSpace(FeatureLayout layout)
      : layout_(layout), extractor_(layout) {}

  const FeatureLayout& layout() const { return layout_; }
  size_t dims() const { return layout_.dims(); }
  const FeatureExtractor& extractor() const { return extractor_; }

  /// Builds the AffineMap realizing `t` on index rectangles (Theorems 2/3).
  /// Fails with InvalidArgument when `t` is not safe in this space.
  Result<spatial::AffineMap> ToAffineMap(const FeatureTransform& t) const;

  /// The NN lower-bound metric anchored at a query point (which must be in
  /// this space's coordinates). Spectral dims only: mean/std dims do not
  /// contribute to similarity distance. On a point rect (every leaf entry
  /// and delta point) it is SpectralDistanceSquared's point distance; in
  /// Spol a point coefficient skips the annular-sector case. Its cheap
  /// key (CheapMinDistSquared), which ranks unmerged kNN entries until
  /// they reach the front, is the point distance itself in Srect and the
  /// radial terms sum (q_m - p_m)^2 alone in Spol, no trig.
  std::unique_ptr<rtree::NnMetric> MakeNnMetric(spatial::Point query) const;

  /// Squared spectral distance between two feature points: the squared
  /// Euclidean distance between the complex coefficient vectors the
  /// points encode, in either coordinate space. Cancellation-free: in
  /// Spol each coefficient adds dm^2 + 4 m_a m_b sin^2(dtheta / 2), one
  /// sin. The range filter's leaf test (Keeps) and the Spol kNN metric's
  /// point case compute exactly this.
  double SpectralDistanceSquared(const spatial::Point& a,
                                 const spatial::Point& b) const;

  /// Algorithm 2's leaf test: true iff the (transformed) point rect
  /// `point` lies in filter.rect and its stored coefficients lie within
  /// filter.radius of filter.center's (Lemma 1's ball, not just its
  /// bounding rectangle).
  bool Keeps(const RangeFilter& filter, const spatial::Rect& point) const;

  /// Lower bound of the spectral distance between any point of rect `a`
  /// and any point of rect `b` (both already transformed). In Srect this
  /// is the rectangle-rectangle MINDIST over the spectral dims; in Spol
  /// each (magnitude, angle) interval pair is treated as an annular sector
  /// via its exact Cartesian bounding box. Used by the tree-match join:
  /// a node pair prunes when the bound exceeds epsilon.
  double MinSpectralDistanceBetweenRects(const spatial::Rect& a,
                                         const spatial::Rect& b) const;

  /// Join predicate for an epsilon-join: true when rects a and b may
  /// contain a pair within spectral distance eps.
  std::function<bool(const spatial::Rect&, const spatial::Rect&)>
  MakeJoinPredicate(double eps) const;

 private:
  FeatureLayout layout_;
  FeatureExtractor extractor_;
};

}  // namespace tsq

#endif  // TSQ_CORE_FEATURE_SPACE_H_
