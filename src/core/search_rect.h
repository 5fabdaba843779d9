// Copyright (c) 2026 The tsq Authors.
//
// Algorithm 2's filter (Sec. 3.1, Fig. 7, Lemma 1): a stored series is a
// candidate when its stored coefficients lie within the filter radius of
// the query's. The index finds such points through the minimum bounding
// rectangle, in index coordinates, of that ball, then tests each leaf
// point against the ball itself (FeatureSpace::Keeps).
//
// The radius. Lemma 1 needs radius eps: the stored coefficients' part of
// D^2 is at most D^2. For a real series X_{n-f} = conj(X_f), so when every
// stored f has 0 < f < n/2 each stored coefficient's difference appears
// twice in D^2 and the radius can be eps/sqrt(2) (Rafiei & Mendelzon,
// FODO 1998). Computed spectra are symmetric only up to rounding, so that
// radius carries half of a bound on the deviation (MirrorError, derived
// in search_rect.cpp). Every radius carries the rounding slack the
// rectangle has always used.
//
// The rectangle:
//   * Srect: (q_d - r, q_d + r) per dimension — the trivial case.
//   * Spol: per coefficient with polar (m, alpha): magnitude in
//     [max(0, m - r), m + r]; angle in alpha +- asin(r / m) when
//     m > r, otherwise the whole circle (the r-disk contains the
//     origin, so every phase is reachable). Angle intervals that cross the
//     +-pi cut are widened to the full circle (conservative superset —
//     preserves Lemma 1).
//
// The mean/std dimensions are not part of the spectral distance; they are
// constrained only by an optional explicit window (GK95-style predicates),
// otherwise left unbounded.

#ifndef TSQ_CORE_SEARCH_RECT_H_
#define TSQ_CORE_SEARCH_RECT_H_

#include <optional>

#include "core/feature.h"
#include "dft/complex_vec.h"
#include "spatial/rect.h"
#include "transform/linear_transform.h"

namespace tsq {

/// Optional rectangle predicate on the (mean, std) index dimensions.
struct MeanStdWindow {
  double mean_lo;
  double mean_hi;
  double std_lo;
  double std_hi;

  /// A window containing everything (the default predicate).
  static MeanStdWindow Unbounded();
};

/// A bound on how far the compared spectra's mirror terms can be from
/// conjugate symmetry over the stored coefficients, when the symmetry
/// halves the stored part of D^2; nullopt when it does not hold. It holds
/// when the basis is Fourier, the layout stores normal-form spectra,
/// every stored f has 0 < f < n/2, and each given transform (the data
/// side's, and the query side's under TransformMode::kBoth) has a and b
/// conjugate-symmetric at every stored f and its mirror n - f, checked on
/// their values. A null transform is the identity.
std::optional<double> MirrorError(const FeatureLayout& layout, size_t n,
                                  const LinearTransform* data_transform,
                                  const LinearTransform* query_transform);

/// The filter radius for threshold eps >= 0 around a query whose stored
/// coefficients are `coefficients` (series length n): eps, or
/// eps/sqrt(2) + mirror_error/2 when `mirror_error` is set, plus the
/// rounding slack — at least 1e-9 and at least 1e-12 * |Q_f| for every
/// stored Q_f.
double FilterRadius(const ComplexVec& coefficients, double eps, size_t n,
                    const std::optional<double>& mirror_error);

/// The rectangle bounding the ball of `radius` (slack included: pass
/// FilterRadius) around a query described by its stored coefficient
/// slice (already transformed if the query side is transformed).
/// `coefficients` must hold exactly layout.num_coefficients complex
/// values. Requires radius >= 0.
spatial::Rect BuildSearchRect(const FeatureLayout& layout,
                              const ComplexVec& coefficients, double radius,
                              const std::optional<MeanStdWindow>& window);

/// Algorithm 2's step-2 filter around one query. A stored series is a
/// candidate iff its (transformed) index point lies in `rect` and its
/// stored coefficients lie within `radius` of `center`'s
/// (FeatureSpace::Keeps).
struct RangeFilter {
  spatial::Rect rect;      ///< bounds the ball; mean/std dims per window
  spatial::Point center;   ///< the query's index point (spectral dims)
  double radius = 0.0;     ///< FilterRadius: slack included
};

/// The filter for threshold eps around `coefficients`.
RangeFilter BuildRangeFilter(const FeatureExtractor& extractor,
                             const ComplexVec& coefficients, double eps,
                             size_t n,
                             const std::optional<double>& mirror_error,
                             const std::optional<MeanStdWindow>& window);

}  // namespace tsq

#endif  // TSQ_CORE_SEARCH_RECT_H_
