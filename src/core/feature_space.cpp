// Copyright (c) 2026 The tsq Authors.

#include "core/feature_space.h"

#include <cmath>
#include <complex>
#include <numbers>

#include "simd/simd.h"
#include "spatial/metrics.h"

namespace tsq {

namespace {

constexpr double kPi = std::numbers::pi;

/// |x - y|^2 for complex x = (mx, tx) and y = (my, ty) in polar form:
/// (mx - my)^2 + 4 mx my sin^2((tx - ty) / 2). Every term is nonnegative,
/// so nothing cancels, unlike mx^2 + my^2 - 2 mx my cos(tx - ty); the
/// angle difference needs no wrapping (sin^2 has period 2 pi there).
double PolarPointDistSquared(double mx, double tx, double my, double ty) {
  const double dm = mx - my;
  const double s = std::sin(0.5 * (tx - ty));
  return dm * dm + 4.0 * mx * my * s * s;
}

/// MINDIST in Srect: plain rectangular MINDIST over the spectral dims,
/// computed by the kernel layer. The batch override resolves the kernel
/// table once per node instead of once per rect.
class RectSpaceMetric final : public rtree::NnMetric {
 public:
  RectSpaceMetric(spatial::Point query, size_t spectral_offset)
      : query_(std::move(query)), offset_(spectral_offset) {}

  double MinDistSquared(const spatial::Rect& rect) const override {
    return simd::MinDistSquared(query_.data() + offset_,
                                rect.lo().data() + offset_,
                                rect.hi().data() + offset_,
                                query_.size() - offset_);
  }

  void MinDistSquaredBatch(const spatial::Rect* const* rects, size_t count,
                           double* out) const override {
    const auto& k = simd::Kernels();
    const double* q = query_.data() + offset_;
    const size_t n = query_.size() - offset_;
    for (size_t i = 0; i < count; ++i) {
      out[i] = k.min_dist_squared(q, rects[i]->lo().data() + offset_,
                                  rects[i]->hi().data() + offset_, n);
    }
  }

 private:
  spatial::Point query_;
  size_t offset_;
};

/// MINDIST in Spol: per coefficient, the exact distance from the query's
/// complex value to the annular sector {r in [m0,m1], theta in [t0,t1]}
/// described by the rect's (magnitude, angle) interval pair. A coefficient
/// whose two intervals are both degenerate (every leaf entry and delta
/// point) is a point, and gets the point distance directly, as NnMetric
/// requires.
class PolarSpaceMetric final : public rtree::NnMetric {
 public:
  PolarSpaceMetric(spatial::Point query, size_t spectral_offset,
                   size_t num_coefficients)
      : query_(std::move(query)),
        offset_(spectral_offset),
        num_coefficients_(num_coefficients) {}

  double MinDistSquared(const spatial::Rect& rect) const override {
    double acc = 0.0;
    for (size_t j = 0; j < num_coefficients_; ++j) {
      const size_t md = offset_ + 2 * j;      // magnitude dim
      const size_t ad = offset_ + 2 * j + 1;  // angle dim
      if (rect.lo(md) == rect.hi(md) && rect.lo(ad) == rect.hi(ad)) {
        acc += PolarPointDistSquared(query_[md], query_[ad], rect.lo(md),
                                     rect.lo(ad));
      } else {
        acc += SectorDistSquared(query_[md], query_[ad], rect.lo(md),
                                 rect.hi(md), rect.lo(ad), rect.hi(ad));
      }
    }
    return acc;
  }

  /// The radial terms of a point's distance, sum (q_m - p_m)^2, with no
  /// trig. Each is PolarPointDistSquared's first addend without the
  /// nonnegative angular one, and rounding is monotone, so every term and
  /// every partial sum stays at or below MinDistSquared's. That needs
  /// every product rounded before its add, which is why CMakeLists.txt
  /// builds this file without FMA contraction.
  double CheapMinDistSquared(const spatial::Rect& point) const override {
    double acc = 0.0;
    for (size_t j = 0; j < num_coefficients_; ++j) {
      const size_t md = offset_ + 2 * j;
      const double dm = query_[md] - point.lo(md);
      acc += dm * dm;
    }
    return acc;
  }

  /// Squared distance from the complex point (qm, qa) [polar] to the
  /// annular sector r in [m0, m1], theta in [t0, t1].
  static double SectorDistSquared(double qm, double qa, double m0, double m1,
                                  double t0, double t1) {
    m0 = std::max(0.0, m0);
    // Full-circle angular interval: pure radial gap.
    if (t1 - t0 >= 2.0 * kPi - 1e-12) {
      const double gap = (qm < m0) ? (m0 - qm) : (qm > m1 ? qm - m1 : 0.0);
      return gap * gap;
    }
    // Inside the angular span (the span never wraps: wrapping intervals
    // are widened to the full circle upstream): radial gap only.
    if (qa >= t0 && qa <= t1) {
      const double gap = (qm < m0) ? (m0 - qm) : (qm > m1 ? qm - m1 : 0.0);
      return gap * gap;
    }
    // Outside: the nearest sector point lies on one of the two radial
    // boundary segments (from m0 to m1 at angle t0 / t1).
    const double qx = qm * std::cos(qa);
    const double qy = qm * std::sin(qa);
    const double d0 = spatial::PointSegmentDistSquared(
        qx, qy, m0 * std::cos(t0), m0 * std::sin(t0), m1 * std::cos(t0),
        m1 * std::sin(t0));
    const double d1 = spatial::PointSegmentDistSquared(
        qx, qy, m0 * std::cos(t1), m0 * std::sin(t1), m1 * std::cos(t1),
        m1 * std::sin(t1));
    return std::min(d0, d1);
  }

 private:
  spatial::Point query_;
  size_t offset_;
  size_t num_coefficients_;
};

}  // namespace

FeatureTransform FeatureTransform::ShiftScale(size_t n, double delta,
                                              double factor) {
  FeatureTransform t{LinearTransform::Identity(n), factor, delta,
                     std::abs(factor)};
  return t;
}

Result<spatial::AffineMap> FeatureSpace::ToAffineMap(
    const FeatureTransform& t) const {
  const size_t k = layout_.num_coefficients;
  const size_t first = layout_.first_coefficient;
  if (t.spectral.size() < first + k) {
    return Status::InvalidArgument(
        "spectral transform length " + std::to_string(t.spectral.size()) +
        " shorter than layout coefficient range");
  }

  std::vector<double> scale(dims(), 1.0);
  std::vector<double> offset(dims(), 0.0);
  std::vector<bool> angular(dims(), false);

  if (layout_.include_mean_std) {
    scale[0] = t.mean_scale;
    offset[0] = t.mean_offset;
    scale[1] = t.std_scale;
    offset[1] = 0.0;
  }

  const size_t off = layout_.spectral_offset();
  if (layout_.space == CoordinateSpace::kRectangular) {
    // Theorem 2: requires real a (complex b allowed).
    if (!t.spectral.IsSafeRect()) {
      return Status::InvalidArgument(
          "transform '" + t.spectral.name() +
          "' has complex stretch a; not safe in Srect (Theorem 2)");
    }
    for (size_t j = 0; j < k; ++j) {
      const Complex a = t.spectral.a()[first + j];
      const Complex b = t.spectral.b()[first + j];
      scale[off + 2 * j] = a.real();
      offset[off + 2 * j] = b.real();
      scale[off + 2 * j + 1] = a.real();
      offset[off + 2 * j + 1] = b.imag();
    }
  } else {
    // Theorem 3: requires b = 0 (complex a allowed).
    if (!t.spectral.IsSafePolar()) {
      return Status::InvalidArgument(
          "transform '" + t.spectral.name() +
          "' has nonzero translation b; not safe in Spol (Theorem 3)");
    }
    for (size_t j = 0; j < k; ++j) {
      const Complex a = t.spectral.a()[first + j];
      scale[off + 2 * j] = std::abs(a);
      offset[off + 2 * j] = 0.0;
      scale[off + 2 * j + 1] = 1.0;
      offset[off + 2 * j + 1] = std::arg(a);
      angular[off + 2 * j + 1] = true;
    }
  }
  // A NaN or infinite map would turn finite MBRs into NaN intervals
  // (0 * inf), which no rectangle can hold.
  for (size_t d = 0; d < dims(); ++d) {
    if (!std::isfinite(scale[d]) || !std::isfinite(offset[d])) {
      return Status::InvalidArgument("transform '" + t.spectral.name() +
                                     "' is not finite on index dim " +
                                     std::to_string(d));
    }
  }
  return spatial::AffineMap(std::move(scale), std::move(offset),
                            std::move(angular));
}

std::unique_ptr<rtree::NnMetric> FeatureSpace::MakeNnMetric(
    spatial::Point query) const {
  TSQ_CHECK_MSG(query.size() == dims(), "query point dims %zu != space %zu",
                query.size(), dims());
  if (layout_.space == CoordinateSpace::kRectangular) {
    return std::make_unique<RectSpaceMetric>(std::move(query),
                                             layout_.spectral_offset());
  }
  return std::make_unique<PolarSpaceMetric>(
      std::move(query), layout_.spectral_offset(), layout_.num_coefficients);
}

namespace {

/// Exact Cartesian bounding box of the annular sector r in [m0, m1],
/// theta in [t0, t1] (canonical non-wrapping interval). Returns
/// (x_lo, x_hi, y_lo, y_hi).
struct SectorBBox {
  double x_lo, x_hi, y_lo, y_hi;
};

SectorBBox SectorBoundingBox(double m0, double m1, double t0, double t1) {
  m0 = std::max(0.0, m0);
  // Range of cos over [t0, t1] within [-pi, pi]: cos is increasing on
  // [-pi, 0], decreasing on [0, pi], so the max is at 0 when the interval
  // contains it, else at an endpoint; the min is at an endpoint (the
  // interval cannot wrap past +-pi).
  const double c0 = std::cos(t0);
  const double c1 = std::cos(t1);
  const double cmax = (t0 <= 0.0 && t1 >= 0.0) ? 1.0 : std::max(c0, c1);
  const double cmin = std::min(c0, c1);
  // Range of sin: max at +pi/2, min at -pi/2 when contained.
  const double s0 = std::sin(t0);
  const double s1 = std::sin(t1);
  const double smax =
      (t0 <= kPi / 2 && t1 >= kPi / 2) ? 1.0 : std::max(s0, s1);
  const double smin =
      (t0 <= -kPi / 2 && t1 >= -kPi / 2) ? -1.0 : std::min(s0, s1);

  // Interval product [m0, m1] x [cmin, cmax]; all m >= 0.
  auto scale_interval = [m0, m1](double lo, double hi, double* out_lo,
                                 double* out_hi) {
    const double candidates[4] = {m0 * lo, m0 * hi, m1 * lo, m1 * hi};
    *out_lo = std::min(std::min(candidates[0], candidates[1]),
                       std::min(candidates[2], candidates[3]));
    *out_hi = std::max(std::max(candidates[0], candidates[1]),
                       std::max(candidates[2], candidates[3]));
  };
  SectorBBox box{};
  scale_interval(cmin, cmax, &box.x_lo, &box.x_hi);
  scale_interval(smin, smax, &box.y_lo, &box.y_hi);
  return box;
}

/// Squared gap between 1-D intervals [a0, a1] and [b0, b1]; 0 on overlap.
double IntervalGapSquared(double a0, double a1, double b0, double b1) {
  double gap = 0.0;
  if (a1 < b0) {
    gap = b0 - a1;
  } else if (b1 < a0) {
    gap = a0 - b1;
  }
  return gap * gap;
}

}  // namespace

double FeatureSpace::MinSpectralDistanceBetweenRects(
    const spatial::Rect& a, const spatial::Rect& b) const {
  TSQ_CHECK(a.dims() == dims() && b.dims() == dims());
  const size_t off = layout_.spectral_offset();
  double acc = 0.0;
  if (layout_.space == CoordinateSpace::kRectangular) {
    for (size_t d = off; d < dims(); ++d) {
      acc += IntervalGapSquared(a.lo(d), a.hi(d), b.lo(d), b.hi(d));
    }
  } else {
    for (size_t j = 0; j < layout_.num_coefficients; ++j) {
      const size_t md = off + 2 * j;
      const size_t ad = off + 2 * j + 1;
      const SectorBBox ba =
          SectorBoundingBox(a.lo(md), a.hi(md), a.lo(ad), a.hi(ad));
      const SectorBBox bb =
          SectorBoundingBox(b.lo(md), b.hi(md), b.lo(ad), b.hi(ad));
      acc += IntervalGapSquared(ba.x_lo, ba.x_hi, bb.x_lo, bb.x_hi);
      acc += IntervalGapSquared(ba.y_lo, ba.y_hi, bb.y_lo, bb.y_hi);
    }
  }
  return std::sqrt(acc);
}

std::function<bool(const spatial::Rect&, const spatial::Rect&)>
FeatureSpace::MakeJoinPredicate(double eps) const {
  TSQ_CHECK_MSG(eps >= 0.0, "negative join threshold");
  return [this, eps](const spatial::Rect& a, const spatial::Rect& b) {
    return MinSpectralDistanceBetweenRects(a, b) <= eps;
  };
}

double FeatureSpace::SpectralDistanceSquared(const spatial::Point& a,
                                             const spatial::Point& b) const {
  TSQ_DCHECK(a.size() == dims() && b.size() == dims());
  const size_t off = layout_.spectral_offset();
  double acc = 0.0;
  if (layout_.space == CoordinateSpace::kRectangular) {
    for (size_t d = off; d < dims(); ++d) {
      const double diff = a[d] - b[d];
      acc += diff * diff;
    }
    return acc;
  }
  for (size_t j = 0; j < layout_.num_coefficients; ++j) {
    const size_t md = off + 2 * j;
    acc += PolarPointDistSquared(a[md], a[md + 1], b[md], b[md + 1]);
  }
  return acc;
}

bool FeatureSpace::Keeps(const RangeFilter& filter,
                         const spatial::Rect& point) const {
  return point.Intersects(filter.rect) &&
         SpectralDistanceSquared(point.lo(), filter.center) <=
             filter.radius * filter.radius;
}

}  // namespace tsq
