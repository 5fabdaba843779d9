// Copyright (c) 2026 The tsq Authors.

#include "core/feature.h"

#include <cmath>
#include <complex>
#include <string>
#include <utility>

#include "dft/dft.h"
#include "dft/haar.h"

namespace tsq {

Status CheckFinite(const RealVec& values, const char* what) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(std::string(what) + " value " +
                                     std::to_string(i) + " is not finite");
    }
  }
  return Status::OK();
}

FeatureLayout FeatureLayout::Paper() {
  FeatureLayout layout;
  layout.space = CoordinateSpace::kPolar;
  layout.normalize = true;
  layout.include_mean_std = true;
  layout.first_coefficient = 1;
  layout.num_coefficients = 2;
  return layout;
}

FeatureLayout FeatureLayout::Haar(size_t k) {
  FeatureLayout layout;
  layout.space = CoordinateSpace::kRectangular;
  layout.basis = FeatureBasis::kHaar;
  layout.normalize = true;
  layout.include_mean_std = true;
  layout.first_coefficient = 1;
  layout.num_coefficients = k;
  return layout;
}

FeatureLayout FeatureLayout::Agrawal(size_t k) {
  FeatureLayout layout;
  layout.space = CoordinateSpace::kRectangular;
  layout.normalize = false;
  layout.include_mean_std = false;
  layout.first_coefficient = 0;
  layout.num_coefficients = k;
  return layout;
}

Status FeatureLayout::Validate(size_t series_length) const {
  if (num_coefficients == 0) {
    return Status::InvalidArgument("layout stores zero coefficients");
  }
  if (first_coefficient + num_coefficients > series_length) {
    return Status::InvalidArgument(
        "layout needs coefficients up to " +
        std::to_string(first_coefficient + num_coefficients) +
        " but series length is " + std::to_string(series_length));
  }
  if (normalize && first_coefficient == 0 && include_mean_std) {
    // Legal but wasteful: X_0 of a normal form is always zero; warn-level
    // misuse is still accepted.
  }
  if (basis == FeatureBasis::kHaar) {
    if (!haar::IsValidLength(series_length)) {
      return Status::InvalidArgument(
          "the Haar basis requires a power-of-two series length, got " +
          std::to_string(series_length));
    }
    if (space != CoordinateSpace::kRectangular) {
      return Status::InvalidArgument(
          "the Haar basis requires the rectangular coordinate space "
          "(coefficients are real)");
    }
  }
  return Status::OK();
}

namespace {

/// The single definition of a series' linear feature dimensions: both the
/// insert path (Extract) and the index-rebuild path (FromStored) fill
/// mean/std through series::Moments (the kernel-layer moments pass), so
/// the two can never drift apart.
void FillMoments(const RealVec& values, SeriesFeatures* out) {
  Moments(values, &out->mean, &out->std);
}

}  // namespace

SeriesFeatures FeatureExtractor::Extract(const RealVec& values) const {
  SeriesFeatures out;
  if (layout_.normalize) {
    // ToNormalForm shares the Moments computation, so mean/std here are
    // bit-identical to the FillMoments path.
    NormalForm nf = ToNormalForm(values);
    out.mean = nf.mean;
    out.std = nf.std;
    if (layout_.basis == FeatureBasis::kHaar) {
      out.spectrum = cvec::FromReal(haar::Forward(nf.normalized));
    } else {
      out.spectrum = dft::Forward(nf.normalized);
    }
    return out;
  }
  FillMoments(values, &out);
  if (layout_.basis == FeatureBasis::kHaar) {
    out.spectrum = cvec::FromReal(haar::Forward(values));
  } else {
    out.spectrum = dft::Forward(values);
  }
  return out;
}

SeriesFeatures FeatureExtractor::FromStored(const RealVec& values,
                                            ComplexVec spectrum) const {
  SeriesFeatures out;
  FillMoments(values, &out);
  out.spectrum = std::move(spectrum);
  return out;
}

ComplexVec FeatureExtractor::StoredCoefficients(
    const ComplexVec& spectrum) const {
  TSQ_CHECK_MSG(
      layout_.first_coefficient + layout_.num_coefficients <= spectrum.size(),
      "spectrum too short (%zu) for layout", spectrum.size());
  return ComplexVec(
      spectrum.begin() + static_cast<ptrdiff_t>(layout_.first_coefficient),
      spectrum.begin() + static_cast<ptrdiff_t>(layout_.first_coefficient +
                                                layout_.num_coefficients));
}

spatial::Point FeatureExtractor::ToPoint(const SeriesFeatures& f) const {
  return ToPointFromCoefficients(StoredCoefficients(f.spectrum), f.mean,
                                 f.std);
}

spatial::Point FeatureExtractor::ToPointFromCoefficients(
    const ComplexVec& coefficients, double mean, double std) const {
  TSQ_CHECK_MSG(coefficients.size() == layout_.num_coefficients,
                "expected %zu coefficients, got %zu",
                layout_.num_coefficients, coefficients.size());
  spatial::Point p;
  p.reserve(layout_.dims());
  if (layout_.include_mean_std) {
    p.push_back(mean);
    p.push_back(std);
  }
  for (const Complex& c : coefficients) {
    if (layout_.space == CoordinateSpace::kRectangular) {
      p.push_back(c.real());
      p.push_back(c.imag());
    } else {
      p.push_back(std::abs(c));
      p.push_back(std::arg(c));  // arg(0) == 0 by definition
    }
  }
  return p;
}

std::vector<bool> FeatureExtractor::AngularMask() const {
  std::vector<bool> mask(layout_.dims(), false);
  if (layout_.space == CoordinateSpace::kPolar) {
    const size_t off = layout_.spectral_offset();
    for (size_t j = 0; j < layout_.num_coefficients; ++j) {
      mask[off + 2 * j + 1] = true;
    }
  }
  return mask;
}

}  // namespace tsq
