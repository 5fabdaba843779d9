// Copyright (c) 2026 The tsq Authors.

#include "core/search_rect.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>

#include "common/macros.h"
#include "dft/dft.h"

namespace tsq {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = std::numbers::pi;
constexpr double kUnitRoundoff = 0x1p-53;
/// How far from conjugate-symmetric, relative to max(1, |value|), a
/// transform's a_f or b_f may be for MirrorError to apply.
constexpr double kSymmetryTolerance = 1e-12;
}  // namespace

MeanStdWindow MeanStdWindow::Unbounded() {
  return MeanStdWindow{-kInf, kInf, -kInf, kInf};
}

// MirrorError's derivation. Let S be the stored frequencies and
// M = {n - f : f in S} their mirrors, disjoint from S when 0 < f < n/2.
// Let Y be the compared data spectrum and Q the query target, both as
// computed: the refine compares exactly these. For an answer,
// eps^2 >= D^2 >= ||u||^2 + ||v||^2 with u = (Y_f - Q_f) and
// v = (Y_{n-f} - Q_{n-f}) over f in S. If ||v - conj(u)|| <= Δ, then
// ||v|| >= ||u|| - Δ, so t = ||u|| obeys t^2 + (t - Δ)^2 <= eps^2 when
// t >= Δ, hence t <= (Δ + sqrt(2 eps^2 - Δ^2)) / 2 <= eps/sqrt(2) + Δ/2;
// when t < Δ, t <= min(Δ, eps) <= eps/sqrt(2) + Δ/2 as well. So the
// radius eps/sqrt(2) needs Δ/2 more slack (FilterRadius).
//
// Δ <= Δ_Y + Δ_Q, each side's deviation from symmetry. A side is
// Z = fl(a ∗ X + b) (Z = X without a transform), where X is dft::Forward
// of a normal form x. Moments and ToNormalForm center with one rounded
// mean, so ||x||^2 = n (1 + O(nu)): ||x|| <= 1.01 sqrt(n), or x = 0. The
// exact DFT of the real x is symmetric and X is within
// E = ForwardErrorBound(n) * 1.01 sqrt(n) of it, so X's mirror terms
// deviate by at most sqrt(2) E over S. Then
//   Z_{n-f} - conj(Z_f) = a_{n-f} (X_{n-f} - conj X_f)
//       + (a_{n-f} - conj a_f) conj X_f + (b_{n-f} - conj b_f)
//       + r_{n-f} - conj r_f,
// where Apply's rounding r obeys |r_f| <= 4u |a_f| |X_f| + 2u |b_f|
// (product within sqrt(5) u, sum within u; u = 2^-53). Let A be the
// largest |a_{n-f}| over S, A' the largest |a| over S and M, da the
// largest |a_{n-f} - conj a_f|, db and B the l2 norms of
// (b_{n-f} - conj b_f) over S and of b over S and M, and
// Xn = 1.01 sqrt(n) + E >= ||X||. Then
//   Δ_side <= sqrt(2) A E + da Xn + db + 6u (A' Xn + B).
// da and db are measured on the transform's values; the gate admits them
// only up to kSymmetryTolerance, so an asymmetric (a, b) keeps radius eps
// instead of buying eps/sqrt(2) with a large slack.
std::optional<double> MirrorError(const FeatureLayout& layout, size_t n,
                                  const LinearTransform* data_transform,
                                  const LinearTransform* query_transform) {
  const size_t first = layout.first_coefficient;
  if (layout.basis != FeatureBasis::kFourier || !layout.normalize ||
      layout.num_coefficients == 0 || first == 0 ||
      2 * (first + layout.num_coefficients - 1) >= n) {
    return std::nullopt;
  }
  const size_t last = first + layout.num_coefficients - 1;
  const double root_n = std::sqrt(static_cast<double>(n));
  const double spectrum_error = dft::ForwardErrorBound(n) * 1.01 * root_n;
  const double spectrum_norm = 1.01 * root_n + spectrum_error;
  double total = 0.0;
  for (const LinearTransform* t : {data_transform, query_transform}) {
    if (t == nullptr) {
      total += std::numbers::sqrt2 * spectrum_error;
      continue;
    }
    if (t->size() != n) return std::nullopt;
    double a_mirror = 0.0;
    double a_all = 0.0;
    double da = 0.0;
    double db_sq = 0.0;
    double b_sq = 0.0;
    for (size_t f = first; f <= last; ++f) {
      const Complex a = t->a()[f];
      const Complex am = t->a()[n - f];
      const Complex b = t->b()[f];
      const Complex bm = t->b()[n - f];
      const double dev_a = std::abs(am - std::conj(a));
      const double dev_b = std::abs(bm - std::conj(b));
      if (!(dev_a <= kSymmetryTolerance * std::max(1.0, std::abs(a))) ||
          !(dev_b <= kSymmetryTolerance * std::max(1.0, std::abs(b)))) {
        return std::nullopt;
      }
      a_mirror = std::max(a_mirror, std::abs(am));
      a_all = std::max({a_all, std::abs(a), std::abs(am)});
      da = std::max(da, dev_a);
      db_sq += dev_b * dev_b;
      b_sq += std::norm(b) + std::norm(bm);
    }
    total += std::numbers::sqrt2 * a_mirror * spectrum_error +
             da * spectrum_norm + std::sqrt(db_sq) +
             6.0 * kUnitRoundoff * (a_all * spectrum_norm + std::sqrt(b_sq));
  }
  if (!std::isfinite(total)) return std::nullopt;
  return total;
}

double FilterRadius(const ComplexVec& coefficients, double eps, size_t n,
                    const std::optional<double>& mirror_error) {
  TSQ_CHECK_MSG(eps >= 0.0, "negative query threshold");
  // Rounding slack. The stored (transformed) point and the query-side
  // coefficients travel through different floating-point expressions
  // (e.g. wrapped angle sums vs arg of a product), so a zero-width
  // filter could falsely dismiss an exact match. Widening by a few ulps
  // of the coefficients keeps the filter a superset; postprocessing
  // removes the extras. The refine's computed D can also fall short of
  // the exact D by (n + 4) u D, and the leaf distance errs by a few u of
  // itself: the last term covers both.
  double slack = 1e-9;
  for (const Complex& c : coefficients) {
    slack = std::max(slack, 1e-12 * std::abs(c));
  }
  slack += (static_cast<double>(n) + 64.0) * kUnitRoundoff * eps;
  if (!mirror_error.has_value()) return eps + slack;
  return eps * (1.0 / std::numbers::sqrt2) + 0.5 * *mirror_error + slack;
}

spatial::Rect BuildSearchRect(const FeatureLayout& layout,
                              const ComplexVec& coefficients, double radius,
                              const std::optional<MeanStdWindow>& window) {
  TSQ_CHECK_MSG(coefficients.size() == layout.num_coefficients,
                "expected %zu coefficients, got %zu", layout.num_coefficients,
                coefficients.size());
  TSQ_CHECK_MSG(radius >= 0.0, "negative filter radius");

  spatial::Point lo(layout.dims());
  spatial::Point hi(layout.dims());

  if (layout.include_mean_std) {
    const MeanStdWindow w = window.value_or(MeanStdWindow::Unbounded());
    TSQ_CHECK_MSG(w.mean_lo <= w.mean_hi && w.std_lo <= w.std_hi,
                  "inverted mean/std window");
    lo[0] = w.mean_lo;
    hi[0] = w.mean_hi;
    lo[1] = w.std_lo;
    hi[1] = w.std_hi;
  }

  const size_t off = layout.spectral_offset();
  for (size_t j = 0; j < layout.num_coefficients; ++j) {
    const Complex c = coefficients[j];
    if (layout.space == CoordinateSpace::kRectangular) {
      lo[off + 2 * j] = c.real() - radius;
      hi[off + 2 * j] = c.real() + radius;
      lo[off + 2 * j + 1] = c.imag() - radius;
      hi[off + 2 * j + 1] = c.imag() + radius;
    } else {
      const double m = std::abs(c);
      const double alpha = std::arg(c);
      lo[off + 2 * j] = std::max(0.0, m - radius);
      hi[off + 2 * j] = m + radius;
      if (m > radius) {
        const double theta = std::asin(radius / m);
        const double a0 = alpha - theta;
        const double a1 = alpha + theta;
        if (a0 < -kPi || a1 > kPi) {
          // The interval leaves the canonical parametrization; cover the
          // whole circle (conservative superset).
          lo[off + 2 * j + 1] = -kPi;
          hi[off + 2 * j + 1] = kPi;
        } else {
          lo[off + 2 * j + 1] = a0;
          hi[off + 2 * j + 1] = a1;
        }
      } else {
        // The disk around c contains the origin: every phase angle is
        // possible (Fig. 7 degenerates).
        lo[off + 2 * j + 1] = -kPi;
        hi[off + 2 * j + 1] = kPi;
      }
    }
  }
  return spatial::Rect(std::move(lo), std::move(hi));
}

RangeFilter BuildRangeFilter(const FeatureExtractor& extractor,
                             const ComplexVec& coefficients, double eps,
                             size_t n,
                             const std::optional<double>& mirror_error,
                             const std::optional<MeanStdWindow>& window) {
  RangeFilter filter;
  filter.radius = FilterRadius(coefficients, eps, n, mirror_error);
  filter.rect = BuildSearchRect(extractor.layout(), coefficients,
                                filter.radius, window);
  // The ball is spectral: the center's mean/std dims are never compared.
  filter.center = extractor.ToPointFromCoefficients(coefficients, 0.0, 0.0);
  return filter;
}

}  // namespace tsq
