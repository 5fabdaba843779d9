// Copyright (c) 2026 The tsq Authors.
//
// Per-dimension affine maps on feature space — the geometric core of the
// paper's Algorithm 1. Theorems 1-3 reduce every *safe* transformation
// T = (a, b) on complex feature vectors to a real affine map
//     x_d -> scale_d * x_d + offset_d
// per real index dimension, and a safe map sends rectangles to rectangles.
// Applying an AffineMap to every MBR while descending the R-tree *is* the
// on-the-fly construction of the transformed index I' = T(I).
//
// Angular dimensions (the phase dims of the polar space Spol) need special
// care: values live on the circle (-pi, pi]. Theorem 3 guarantees their
// scale is exactly 1 (a pure rotation); after adding the offset an interval
// may cross the +-pi branch cut. Since the R-tree stores plain intervals,
// a crossing interval is conservatively widened to the full circle — this
// keeps the transformed MBR a superset of the transformed points, so
// Lemma 1's no-false-dismissal property is preserved (at the cost of a few
// extra candidates, which postprocessing removes).

#ifndef TSQ_SPATIAL_AFFINE_MAP_H_
#define TSQ_SPATIAL_AFFINE_MAP_H_

#include <vector>

#include "spatial/point.h"
#include "spatial/rect.h"

namespace tsq {
namespace spatial {

/// A per-dimension affine transformation of R^d with optional angular
/// (circle-valued) dimensions.
class AffineMap {
 public:
  AffineMap() = default;

  /// Constructs from per-dimension scales and offsets. `angular[d]` marks
  /// circle-valued dims; for those the scale must be 1.0 (Theorem 3).
  AffineMap(std::vector<double> scale, std::vector<double> offset,
            std::vector<bool> angular);

  /// Convenience: no angular dimensions.
  AffineMap(std::vector<double> scale, std::vector<double> offset);

  /// The identity map on d dimensions.
  static AffineMap Identity(size_t dims);

  /// Dimensionality.
  size_t dims() const { return scale_.size(); }

  /// True iff every dimension is scale 1, offset 0.
  bool IsIdentity() const;

  double scale(size_t d) const { return scale_[d]; }
  double offset(size_t d) const { return offset_[d]; }
  bool angular(size_t d) const { return angular_[d]; }

  /// Applies the map to a point. Angular dims are wrapped back to
  /// (-pi, pi].
  Point Apply(const Point& p) const;

  /// Applies the map to a rectangle. Negative scales swap interval
  /// endpoints; angular intervals that cross the branch cut after rotation
  /// are widened to the full circle (see file comment).
  Rect Apply(const Rect& r) const;

  /// Apply(r) written into `*out`, reusing its coordinate storage when it
  /// already has r's dimensionality — the R-tree descent maps every MBR it
  /// tests into one scratch rect this way instead of allocating a copy.
  /// `out` may be `&r` (each dimension is read before it is written), so
  /// a delta scan maps its one scratch rect in place.
  void ApplyInto(const Rect& r, Rect* out) const;

  /// Function composition: (this ∘ other)(x) = this(other(x)). Both maps
  /// must agree on dimensionality and angular mask; the composed scale on
  /// angular dims stays 1.
  AffineMap Compose(const AffineMap& other) const;

 private:
  std::vector<double> scale_;
  std::vector<double> offset_;
  std::vector<bool> angular_;
};

/// Wraps an angle to the canonical interval (-pi, pi].
double WrapAngle(double theta);

}  // namespace spatial
}  // namespace tsq

#endif  // TSQ_SPATIAL_AFFINE_MAP_H_
