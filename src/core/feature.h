// Copyright (c) 2026 The tsq Authors.
//
// Feature extraction: time series -> point in the index feature space.
//
// The paper's pipeline (Sec. 5): transform the series to its normal form
// ([GK95], Eq. 9), take the DFT, drop X_0 (zero for normal forms), and
// store per series
//   dim 1: mean          dim 2: std
//   dim 3: |X_1|         dim 4: angle(X_1)
//   dim 5: |X_2|         dim 6: angle(X_2)
// using the polar representation Spol (chosen because multiplicative
// transforms — moving average — are safe there, Theorem 3).
//
// FeatureLayout parameterizes every choice so the ablations (rectangular
// vs polar, more coefficients, raw [AFS93]-style features) reuse the same
// machinery.

#ifndef TSQ_CORE_FEATURE_H_
#define TSQ_CORE_FEATURE_H_

#include <cstddef>

#include "common/status.h"
#include "dft/complex_vec.h"
#include "series/normal_form.h"
#include "spatial/point.h"

namespace tsq {

/// How complex coefficients become real index dimensions (Sec. 3.1).
enum class CoordinateSpace {
  kRectangular,  ///< Srect: (Re, Im) per coefficient
  kPolar,        ///< Spol: (|.|, angle) per coefficient
};

/// Which orthonormal transform produces the indexed coefficients. Both
/// preserve Euclidean distances (Parseval), so the k-index machinery is
/// identical; the paper uses Fourier, Haar is the classic follow-up basis.
/// Haar coefficients are real (imaginary parts zero) and support only
/// real-stretch transformations (identity/scale/reverse); the filter
/// transformations (moving average, warp) are DFT transfer functions and
/// apply to the Fourier basis only.
enum class FeatureBasis {
  kFourier,
  kHaar,  ///< requires power-of-two lengths and kRectangular space
};

/// Complete description of the index feature space.
struct FeatureLayout {
  CoordinateSpace space = CoordinateSpace::kPolar;
  /// Coefficient basis; the paper's DFT by default.
  FeatureBasis basis = FeatureBasis::kFourier;
  /// Store the spectrum of the normal form (true) or of the raw series.
  bool normalize = true;
  /// Prepend (mean, std) of the original series as two linear dimensions.
  bool include_mean_std = true;
  /// Index of the first stored DFT coefficient (1 skips the X_0 that is
  /// zero for normal forms; raw AFS93 layouts start at 0).
  size_t first_coefficient = 1;
  /// Number of stored DFT coefficients.
  size_t num_coefficients = 2;

  /// The paper's exact 6-D layout (Sec. 5).
  static FeatureLayout Paper();

  /// [AFS93]-style layout: raw series, first k coefficients from X_0,
  /// rectangular coordinates, no mean/std dims.
  static FeatureLayout Agrawal(size_t k);

  /// Haar-basis layout: normal-form Haar coefficients 1..k (coefficient 0
  /// is the scaled mean, zero for normal forms), rectangular space,
  /// mean/std dims kept. Requires power-of-two series lengths.
  static FeatureLayout Haar(size_t k);

  /// Total real dimensions.
  size_t dims() const {
    return (include_mean_std ? 2 : 0) + 2 * num_coefficients;
  }

  /// Index dimension where spectral dims start.
  size_t spectral_offset() const { return include_mean_std ? 2 : 0; }

  /// Validates against a series length; all stored coefficients must exist.
  Status Validate(size_t series_length) const;
};

/// Everything extracted from one series.
struct SeriesFeatures {
  double mean = 0.0;
  double std = 0.0;
  /// Full spectrum of the stored representation (normal form when
  /// layout.normalize, else raw), length n.
  ComplexVec spectrum;
};

/// InvalidArgument unless every value is finite: the index stores each
/// series as a point-MBR, which a NaN or infinite coordinate cannot form.
/// `what` names the values in the message ("series", "query", ...).
Status CheckFinite(const RealVec& values, const char* what);

/// Stateless extractor bound to a layout.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureLayout layout) : layout_(layout) {}

  const FeatureLayout& layout() const { return layout_; }

  /// Runs the full pipeline on raw samples.
  SeriesFeatures Extract(const RealVec& values) const;

  /// Features for a record read back from the relation: mean/std are
  /// recomputed from the stored samples by exactly the code Extract runs
  /// (one shared moments helper), and the stored spectrum — written by
  /// Extract at insert time — is adopted unchanged. So for any series,
  /// FromStored(values, Extract(values).spectrum) == Extract(values)
  /// field for field, which is what keeps the incremental index path
  /// (Insert) and the bulk path (BuildIndex's relation scan) provably
  /// identical, and lets a merge pack the delta's Extract points beside
  /// the tree's into the tree a fresh BuildIndex would write.
  SeriesFeatures FromStored(const RealVec& values, ComplexVec spectrum) const;

  /// Index point for extracted features (truncates the spectrum to the
  /// layout's coefficient range).
  spatial::Point ToPoint(const SeriesFeatures& features) const;

  /// Index point from an explicit coefficient prefix — used for query
  /// points whose spectrum was already transformed. `coefficients` must
  /// hold exactly layout.num_coefficients values, already offset by
  /// first_coefficient.
  spatial::Point ToPointFromCoefficients(const ComplexVec& coefficients,
                                         double mean, double std) const;

  /// The layout's stored coefficient slice of a full spectrum.
  ComplexVec StoredCoefficients(const ComplexVec& spectrum) const;

  /// Per-dimension angular mask (true for Spol phase dims).
  std::vector<bool> AngularMask() const;

 private:
  FeatureLayout layout_;
};

}  // namespace tsq

#endif  // TSQ_CORE_FEATURE_H_
