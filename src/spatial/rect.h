// Copyright (c) 2026 The tsq Authors.
//
// Axis-aligned hyper-rectangles (MBRs) and the geometry the R*-tree's
// descents and STR packing need: intersection, point containment and
// bounding unions.

#ifndef TSQ_SPATIAL_RECT_H_
#define TSQ_SPATIAL_RECT_H_

#include <cstddef>
#include <string>

#include "common/macros.h"
#include "spatial/point.h"

namespace tsq {
namespace spatial {

/// An axis-aligned rectangle [lo, hi] in R^d (closed on both sides, the
/// convention for R-tree MBRs). A default-constructed Rect has zero
/// dimensions and is invalid; `Rect::Empty(d)` produces the canonical empty
/// rectangle whose Union with anything is that thing.
class Rect {
 public:
  Rect() = default;

  /// Degenerate rectangle at a single point.
  static Rect FromPoint(const Point& p);

  /// Rectangle from explicit corners. Requires lo.size() == hi.size() and
  /// lo[i] <= hi[i] for all i.
  Rect(Point lo, Point hi);

  /// The canonical empty rectangle in d dimensions (lo = +inf, hi = -inf).
  static Rect Empty(size_t dims);

  /// Dimensionality.
  size_t dims() const { return lo_.size(); }

  /// True iff this rect is the canonical empty rect (or default-constructed).
  bool IsEmpty() const;

  double lo(size_t d) const {
    TSQ_DCHECK(d < lo_.size());
    return lo_[d];
  }
  double hi(size_t d) const {
    TSQ_DCHECK(d < hi_.size());
    return hi_[d];
  }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Overwrites one dimension's interval. Requires lo <= hi. Inline: the
  /// R-tree decode and AffineMap::ApplyInto call it per coordinate.
  void SetDim(size_t d, double lo, double hi) {
    TSQ_CHECK(d < dims());
    TSQ_CHECK_MSG(lo <= hi, "inverted interval in dim %zu", d);
    lo_[d] = lo;
    hi_[d] = hi;
  }

  /// True iff this and `other` intersect (closed-interval test).
  bool Intersects(const Rect& other) const;

  /// True iff `p` lies inside this rect (closed).
  bool Contains(const Point& p) const;

  /// Extends this rect in place to cover `other`.
  void ExpandToInclude(const Rect& other);
  void ExpandToInclude(const Point& p);

  /// This rect grown by `eps` on every side (the epsilon-range box around a
  /// query point, Sec. 3.1 rectangular case).
  Rect Grown(double eps) const;

  bool operator==(const Rect& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }
  bool operator!=(const Rect& other) const { return !(*this == other); }

  /// "[lo0,hi0]x[lo1,hi1]..." for logs and test output.
  std::string ToString() const;

 private:
  Point lo_;
  Point hi_;
};

}  // namespace spatial
}  // namespace tsq

#endif  // TSQ_SPATIAL_RECT_H_
