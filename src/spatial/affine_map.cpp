// Copyright (c) 2026 The tsq Authors.

#include "spatial/affine_map.h"

#include <cmath>
#include <numbers>

#include "common/macros.h"

namespace tsq {
namespace spatial {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

double WrapAngle(double theta) {
  // Reduce to (-pi, pi]. fmod gives (-2pi, 2pi); two conditional shifts
  // finish the job without loops.
  double t = std::fmod(theta, kTwoPi);
  if (t <= -kPi) t += kTwoPi;
  if (t > kPi) t -= kTwoPi;
  return t;
}

AffineMap::AffineMap(std::vector<double> scale, std::vector<double> offset,
                     std::vector<bool> angular)
    : scale_(std::move(scale)),
      offset_(std::move(offset)),
      angular_(std::move(angular)) {
  TSQ_CHECK_MSG(scale_.size() == offset_.size(),
                "AffineMap scale/offset dims differ: %zu vs %zu",
                scale_.size(), offset_.size());
  TSQ_CHECK_MSG(scale_.size() == angular_.size(),
                "AffineMap scale/angular dims differ: %zu vs %zu",
                scale_.size(), angular_.size());
  for (size_t d = 0; d < scale_.size(); ++d) {
    if (angular_[d]) {
      TSQ_CHECK_MSG(scale_[d] == 1.0,
                    "angular dim %zu must have scale 1 (Theorem 3)", d);
    }
  }
}

AffineMap::AffineMap(std::vector<double> scale, std::vector<double> offset)
    : scale_(std::move(scale)), offset_(std::move(offset)) {
  TSQ_CHECK_MSG(scale_.size() == offset_.size(),
                "AffineMap scale/offset dims differ: %zu vs %zu",
                scale_.size(), offset_.size());
  angular_.assign(scale_.size(), false);
}

AffineMap AffineMap::Identity(size_t dims) {
  return AffineMap(std::vector<double>(dims, 1.0),
                   std::vector<double>(dims, 0.0),
                   std::vector<bool>(dims, false));
}

bool AffineMap::IsIdentity() const {
  for (size_t d = 0; d < dims(); ++d) {
    if (scale_[d] != 1.0 || offset_[d] != 0.0) return false;
  }
  return true;
}

Point AffineMap::Apply(const Point& p) const {
  TSQ_CHECK_MSG(p.size() == dims(), "point dims %zu != map dims %zu", p.size(),
                dims());
  Point out(p.size());
  for (size_t d = 0; d < p.size(); ++d) {
    const double v = scale_[d] * p[d] + offset_[d];
    out[d] = angular_[d] ? WrapAngle(v) : v;
  }
  return out;
}

Rect AffineMap::Apply(const Rect& r) const {
  Rect out;
  ApplyInto(r, &out);
  return out;
}

void AffineMap::ApplyInto(const Rect& r, Rect* out) const {
  TSQ_CHECK_MSG(r.dims() == dims(), "rect dims %zu != map dims %zu", r.dims(),
                dims());
  if (out->dims() != r.dims()) *out = r;
  for (size_t d = 0; d < dims(); ++d) {
    double lo = scale_[d] * r.lo(d) + offset_[d];
    double hi = scale_[d] * r.hi(d) + offset_[d];
    if (lo > hi) std::swap(lo, hi);  // negative scale flips the interval
    if (angular_[d]) {
      // Pure rotation (scale 1). If the rotated interval fits inside the
      // canonical circle parametrization, wrap it; otherwise widen.
      if (hi - lo >= kTwoPi) {
        lo = -kPi;
        hi = kPi;
      } else {
        const double wlo = WrapAngle(lo);
        const double whi = WrapAngle(hi);
        if (wlo <= whi) {
          lo = wlo;
          hi = whi;
        } else {
          // The interval crosses the +-pi cut; a plain [lo, hi] interval
          // cannot represent it, so cover the whole circle (conservative:
          // superset => no false dismissals).
          lo = -kPi;
          hi = kPi;
        }
      }
    }
    out->SetDim(d, lo, hi);
  }
}

AffineMap AffineMap::Compose(const AffineMap& other) const {
  TSQ_CHECK_MSG(dims() == other.dims(),
                "Compose: dims differ (%zu vs %zu)", dims(), other.dims());
  std::vector<double> scale(dims());
  std::vector<double> offset(dims());
  std::vector<bool> angular(dims());
  for (size_t d = 0; d < dims(); ++d) {
    TSQ_CHECK_MSG(angular_[d] == other.angular_[d],
                  "Compose: angular mask differs in dim %zu", d);
    // this(other(x)) = s1*(s2*x + o2) + o1.
    scale[d] = scale_[d] * other.scale_[d];
    offset[d] = scale_[d] * other.offset_[d] + offset_[d];
    angular[d] = angular_[d];
  }
  return AffineMap(std::move(scale), std::move(offset), std::move(angular));
}

}  // namespace spatial
}  // namespace tsq
