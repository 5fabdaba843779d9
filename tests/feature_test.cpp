// Copyright (c) 2026 The tsq Authors.
//
// Tests for the feature layer: layouts, extraction (the paper's 6-D
// mean/std + polar-coefficient scheme), search-rectangle construction in
// both coordinate systems (Sec. 3.1 / Fig. 7 including edge cases), the
// FeatureTransform -> AffineMap lowering with safety enforcement, and the
// polar annular-sector NN metric.

#include <cmath>
#include <numbers>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/feature.h"
#include "core/feature_space.h"
#include "core/search_rect.h"
#include "dft/dft.h"
#include "gtest/gtest.h"
#include "series/normal_form.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

constexpr double kPi = std::numbers::pi;

using testing::RandomRealVec;

// ---------------------------------------------------------------------------
// FeatureLayout
// ---------------------------------------------------------------------------

TEST(FeatureLayoutTest, PaperLayoutIsSixDimensionalPolar) {
  const FeatureLayout layout = FeatureLayout::Paper();
  EXPECT_EQ(layout.dims(), 6u);
  EXPECT_EQ(layout.space, CoordinateSpace::kPolar);
  EXPECT_TRUE(layout.normalize);
  EXPECT_TRUE(layout.include_mean_std);
  EXPECT_EQ(layout.first_coefficient, 1u);
  EXPECT_EQ(layout.num_coefficients, 2u);
  EXPECT_EQ(layout.spectral_offset(), 2u);
  EXPECT_TRUE(layout.Validate(128).ok());
}

TEST(FeatureLayoutTest, AgrawalLayoutIsRawRectangular) {
  const FeatureLayout layout = FeatureLayout::Agrawal(3);
  EXPECT_EQ(layout.dims(), 6u);
  EXPECT_EQ(layout.space, CoordinateSpace::kRectangular);
  EXPECT_FALSE(layout.normalize);
  EXPECT_FALSE(layout.include_mean_std);
  EXPECT_EQ(layout.first_coefficient, 0u);
  EXPECT_EQ(layout.spectral_offset(), 0u);
}

TEST(FeatureLayoutTest, ValidateRejectsBadRanges) {
  FeatureLayout layout = FeatureLayout::Paper();
  EXPECT_TRUE(layout.Validate(128).ok());
  EXPECT_TRUE(layout.Validate(2).IsInvalidArgument());  // needs X_1, X_2
  layout.num_coefficients = 0;
  EXPECT_TRUE(layout.Validate(128).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// FeatureExtractor
// ---------------------------------------------------------------------------

TEST(FeatureExtractorTest, PaperPipelineProducesNormalFormSpectrum) {
  Rng rng(1);
  RealVec x = RandomRealVec(&rng, 64, 10.0, 90.0);
  FeatureExtractor extractor(FeatureLayout::Paper());
  SeriesFeatures f = extractor.Extract(x);

  NormalForm nf = ToNormalForm(x);
  EXPECT_NEAR(f.mean, nf.mean, 1e-12);
  EXPECT_NEAR(f.std, nf.std, 1e-12);
  ASSERT_EQ(f.spectrum.size(), 64u);
  // X_0 of a normal form is zero.
  EXPECT_NEAR(std::abs(f.spectrum[0]), 0.0, 1e-9);
  testing::ExpectComplexNear(f.spectrum, dft::Forward(nf.normalized), 1e-9);
}

TEST(FeatureExtractorTest, RawLayoutKeepsRawSpectrum) {
  Rng rng(2);
  RealVec x = RandomRealVec(&rng, 32, 10.0, 90.0);
  FeatureExtractor extractor(FeatureLayout::Agrawal(4));
  SeriesFeatures f = extractor.Extract(x);
  testing::ExpectComplexNear(f.spectrum, dft::Forward(x), 1e-9);
  EXPECT_GT(f.std, 0.0);  // stats still filled in
}

TEST(FeatureExtractorTest, PolarPointLayout) {
  Rng rng(3);
  RealVec x = RandomRealVec(&rng, 32, 10.0, 90.0);
  FeatureExtractor extractor(FeatureLayout::Paper());
  SeriesFeatures f = extractor.Extract(x);
  spatial::Point p = extractor.ToPoint(f);
  ASSERT_EQ(p.size(), 6u);
  EXPECT_NEAR(p[0], f.mean, 1e-12);
  EXPECT_NEAR(p[1], f.std, 1e-12);
  EXPECT_NEAR(p[2], std::abs(f.spectrum[1]), 1e-12);
  EXPECT_NEAR(p[3], std::arg(f.spectrum[1]), 1e-12);
  EXPECT_NEAR(p[4], std::abs(f.spectrum[2]), 1e-12);
  EXPECT_NEAR(p[5], std::arg(f.spectrum[2]), 1e-12);
}

TEST(FeatureExtractorTest, RectangularPointLayout) {
  FeatureLayout layout = FeatureLayout::Paper();
  layout.space = CoordinateSpace::kRectangular;
  Rng rng(4);
  RealVec x = RandomRealVec(&rng, 32, 10.0, 90.0);
  FeatureExtractor extractor(layout);
  SeriesFeatures f = extractor.Extract(x);
  spatial::Point p = extractor.ToPoint(f);
  EXPECT_NEAR(p[2], f.spectrum[1].real(), 1e-12);
  EXPECT_NEAR(p[3], f.spectrum[1].imag(), 1e-12);
}

TEST(FeatureExtractorTest, AngularMaskMarksPhaseDims) {
  FeatureExtractor polar(FeatureLayout::Paper());
  std::vector<bool> mask = polar.AngularMask();
  ASSERT_EQ(mask.size(), 6u);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_FALSE(mask[2]);
  EXPECT_TRUE(mask[3]);
  EXPECT_FALSE(mask[4]);
  EXPECT_TRUE(mask[5]);

  FeatureExtractor rect(FeatureLayout::Agrawal(2));
  for (bool b : rect.AngularMask()) EXPECT_FALSE(b);
}

TEST(FeatureExtractorTest, StoredCoefficientsSliceIsCorrect) {
  FeatureExtractor extractor(FeatureLayout::Paper());
  ComplexVec spectrum = {Complex(0, 0), Complex(1, 1), Complex(2, 2),
                         Complex(3, 3)};
  ComplexVec stored = extractor.StoredCoefficients(spectrum);
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored[0], Complex(1, 1));
  EXPECT_EQ(stored[1], Complex(2, 2));
}

TEST(FeatureExtractorTest, FromStoredReproducesExtractExactly) {
  // The shared helper behind Insert (Extract) and BuildIndex (FromStored
  // over the scanned relation): replaying a stored record's samples and
  // spectrum must reproduce the insert-time features bit for bit — mean
  // and std included, which both paths compute through one function.
  Rng rng(20260729);
  for (const FeatureLayout& layout :
       {FeatureLayout::Paper(), FeatureLayout::Agrawal(3),
        FeatureLayout::Haar(2)}) {
    FeatureExtractor extractor(layout);
    for (int rep = 0; rep < 8; ++rep) {
      const RealVec values = RandomRealVec(&rng, 16);
      const SeriesFeatures inserted = extractor.Extract(values);
      const SeriesFeatures rebuilt =
          extractor.FromStored(values, inserted.spectrum);
      EXPECT_EQ(rebuilt.mean, inserted.mean);
      EXPECT_EQ(rebuilt.std, inserted.std);
      ASSERT_EQ(rebuilt.spectrum.size(), inserted.spectrum.size());
      for (size_t i = 0; i < inserted.spectrum.size(); ++i) {
        EXPECT_EQ(rebuilt.spectrum[i], inserted.spectrum[i]);
      }
    }
  }
  // A flat series exercises the zero-variance convention.
  FeatureExtractor paper(FeatureLayout::Paper());
  const RealVec flat(16, 3.0);
  const SeriesFeatures a = paper.Extract(flat);
  const SeriesFeatures b = paper.FromStored(flat, a.spectrum);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.std, b.std);
}

// ---------------------------------------------------------------------------
// Search rectangles (Sec. 3.1)
// ---------------------------------------------------------------------------

TEST(SearchRectTest, RectangularIsPlusMinusEps) {
  // Bounds are +- the radius (FilterRadius adds the rounding slack).
  FeatureLayout layout = FeatureLayout::Agrawal(2);
  ComplexVec q = {Complex(1.0, 2.0), Complex(-3.0, 0.5)};
  spatial::Rect r = BuildSearchRect(layout, q, 0.25, std::nullopt);
  ASSERT_EQ(r.dims(), 4u);
  EXPECT_NEAR(r.lo(0), 0.75, 1e-8);
  EXPECT_NEAR(r.hi(0), 1.25, 1e-8);
  EXPECT_NEAR(r.lo(1), 1.75, 1e-8);
  EXPECT_NEAR(r.hi(3), 0.75, 1e-8);
}

TEST(SearchRectTest, PolarMagnitudeAndAngle) {
  // Fig. 7: magnitude in [m - eps, m + eps], angle in alpha +- asin(eps/m).
  FeatureLayout layout = FeatureLayout::Paper();
  layout.include_mean_std = false;
  layout.num_coefficients = 1;
  const Complex q = std::polar(2.0, 0.5);
  spatial::Rect r = BuildSearchRect(layout, {q}, 1.0, std::nullopt);
  ASSERT_EQ(r.dims(), 2u);
  EXPECT_NEAR(r.lo(0), 1.0, 1e-8);
  EXPECT_NEAR(r.hi(0), 3.0, 1e-8);
  const double theta = std::asin(1.0 / 2.0);
  EXPECT_NEAR(r.lo(1), 0.5 - theta, 1e-8);
  EXPECT_NEAR(r.hi(1), 0.5 + theta, 1e-8);
}

TEST(SearchRectTest, PolarDegenerateWhenEpsCoversOrigin) {
  // m <= eps: every phase is possible, magnitude clamps at zero.
  FeatureLayout layout = FeatureLayout::Paper();
  layout.include_mean_std = false;
  layout.num_coefficients = 1;
  const Complex q = std::polar(0.5, 1.0);
  spatial::Rect r = BuildSearchRect(layout, {q}, 1.0, std::nullopt);
  EXPECT_NEAR(r.lo(0), 0.0, 1e-8);
  EXPECT_NEAR(r.hi(0), 1.5, 1e-8);
  EXPECT_NEAR(r.lo(1), -kPi, 1e-12);
  EXPECT_NEAR(r.hi(1), kPi, 1e-12);
}

TEST(SearchRectTest, PolarAngleCrossingCutWidens) {
  FeatureLayout layout = FeatureLayout::Paper();
  layout.include_mean_std = false;
  layout.num_coefficients = 1;
  // alpha near +pi with a wide angular tolerance crosses the cut.
  const Complex q = std::polar(2.0, kPi - 0.1);
  spatial::Rect r = BuildSearchRect(layout, {q}, 1.0, std::nullopt);
  EXPECT_NEAR(r.lo(1), -kPi, 1e-12);
  EXPECT_NEAR(r.hi(1), kPi, 1e-12);
}

TEST(SearchRectTest, MeanStdWindowAppliedAndDefaultsUnbounded) {
  FeatureLayout layout = FeatureLayout::Paper();
  FeatureExtractor extractor(layout);
  ComplexVec coeffs = {Complex(1, 0), Complex(0, 1)};
  spatial::Rect unbounded = BuildSearchRect(layout, coeffs, 0.5, std::nullopt);
  EXPECT_TRUE(std::isinf(unbounded.lo(0)));
  EXPECT_TRUE(std::isinf(unbounded.hi(1)));

  MeanStdWindow window{10.0, 20.0, 0.5, 2.0};
  spatial::Rect bounded = BuildSearchRect(layout, coeffs, 0.5, window);
  EXPECT_EQ(bounded.lo(0), 10.0);
  EXPECT_EQ(bounded.hi(0), 20.0);
  EXPECT_EQ(bounded.lo(1), 0.5);
  EXPECT_EQ(bounded.hi(1), 2.0);
}

TEST(SearchRectTest, MirrorErrorOnlyWhereConjugateSymmetryHolds) {
  // The eps/sqrt(2) radius needs a Fourier basis, normal-form spectra,
  // every stored f in (0, n/2) and transforms symmetric at f and n - f.
  const size_t n = 128;
  const FeatureLayout paper = FeatureLayout::Paper();
  const auto holds = [&](const FeatureLayout& layout, size_t length,
                         const LinearTransform* t) {
    const std::optional<double> e = MirrorError(layout, length, t, t);
    // When it holds, the bound is far below the 1e-9 slack floor here.
    if (e.has_value()) {
      EXPECT_LT(*e, 1e-9);
    }
    return e.has_value();
  };
  EXPECT_TRUE(holds(paper, n, nullptr));
  EXPECT_TRUE(holds(paper, 7, nullptr));   // Bluestein lengths too
  EXPECT_FALSE(holds(paper, 4, nullptr));  // f = 2 is the Nyquist term
  FeatureLayout raw = paper;
  raw.normalize = false;
  EXPECT_FALSE(holds(raw, n, nullptr));
  EXPECT_FALSE(holds(FeatureLayout::Haar(2), n, nullptr));
  EXPECT_FALSE(holds(FeatureLayout::Agrawal(2), n, nullptr));  // X_0
  FeatureLayout rectangular = paper;
  rectangular.space = CoordinateSpace::kRectangular;
  EXPECT_TRUE(holds(rectangular, n, nullptr));

  for (const LinearTransform& t :
       {transforms::MovingAverage(n, 20),
        transforms::WeightedMovingAverage(n, {0.5, 0.3, 0.2}),
        transforms::ExponentialMovingAverage(n, 0.5, 5),
        transforms::Difference(n), transforms::Reverse(n),
        transforms::Scale(n, -2.5),
        FeatureTransform::ShiftScale(n, 3.0, 2.0).spectral}) {
    EXPECT_TRUE(holds(paper, n, &t)) << t.name();
  }
  const LinearTransform warp = transforms::TimeWarp(n, 2, n);
  EXPECT_FALSE(holds(paper, n, &warp));
  // An (a, b) from the wire is checked on its values.
  ComplexVec a = transforms::MovingAverage(n, 20).a();
  a[n - 2] += Complex(0.0, 1e-6);
  const LinearTransform skewed(a, ComplexVec(n, Complex(0.0, 0.0)));
  EXPECT_FALSE(holds(paper, n, &skewed));
  ComplexVec nan_a(n, Complex(1.0, 0.0));
  nan_a[1] = Complex(std::nan(""), 0.0);
  const LinearTransform hostile(nan_a, ComplexVec(n, Complex(0.0, 0.0)));
  EXPECT_FALSE(holds(paper, n, &hostile));

  // The radius: eps/sqrt(2) plus half the bound plus the slack floor.
  const ComplexVec q = {Complex(1.0, 2.0), Complex(-3.0, 0.5)};
  const double e = *MirrorError(paper, n, nullptr, nullptr);
  EXPECT_NEAR(FilterRadius(q, 2.0, n, e), 2.0 / std::sqrt(2.0) + e / 2,
              2e-9);
  EXPECT_GE(FilterRadius(q, 2.0, n, e), 2.0 / std::sqrt(2.0) + e / 2 + 1e-9);
  EXPECT_NEAR(FilterRadius(q, 2.0, n, std::nullopt), 2.0, 2e-9);
  EXPECT_GE(FilterRadius(q, 0.0, n, std::nullopt), 1e-9);
}

TEST(SearchRectTest, ContainsAllEpsCloseSpectraProperty) {
  // The defining property (no false dismissals at the rectangle level):
  // any coefficient vector within eps of q maps to a point inside the
  // search rect — in both coordinate spaces.
  Rng rng(5);
  for (const CoordinateSpace space :
       {CoordinateSpace::kRectangular, CoordinateSpace::kPolar}) {
    FeatureLayout layout;
    layout.space = space;
    layout.include_mean_std = false;
    layout.first_coefficient = 0;
    layout.num_coefficients = 3;
    FeatureExtractor extractor(layout);
    for (int trial = 0; trial < 200; ++trial) {
      ComplexVec q = testing::RandomComplexVec(&rng, 3, -5.0, 5.0);
      const double eps = rng.Uniform(0.01, 3.0);
      spatial::Rect rect = BuildSearchRect(layout, q, eps, std::nullopt);
      // Sample a vector within eps of q (uniform direction, radius <= eps).
      ComplexVec v = q;
      double norm = 0.0;
      ComplexVec delta = testing::RandomComplexVec(&rng, 3, -1.0, 1.0);
      for (const Complex& c : delta) norm += std::norm(c);
      norm = std::sqrt(norm);
      const double radius = rng.Uniform(0.0, eps) / (norm > 0 ? norm : 1.0);
      for (size_t i = 0; i < 3; ++i) v[i] += delta[i] * radius;
      spatial::Point p = extractor.ToPointFromCoefficients(v, 0.0, 0.0);
      EXPECT_TRUE(rect.Contains(p))
          << "space=" << static_cast<int>(space) << " eps=" << eps;
    }
  }
}

// ---------------------------------------------------------------------------
// FeatureTransform -> AffineMap lowering
// ---------------------------------------------------------------------------

TEST(FeatureSpaceTest, MovingAverageLowersInPolarNotRect) {
  const size_t n = 128;
  FeatureSpace polar(FeatureLayout::Paper());
  FeatureTransform t =
      FeatureTransform::Spectral(transforms::MovingAverage(n, 20));
  auto map = polar.ToAffineMap(t);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map->dims(), 6u);
  // Magnitude dims scale by |a_f|; angle dims rotate by arg(a_f).
  LinearTransform spectral = transforms::MovingAverage(n, 20);
  EXPECT_NEAR(map->scale(2), std::abs(spectral.a()[1]), 1e-12);
  EXPECT_NEAR(map->offset(3), std::arg(spectral.a()[1]), 1e-12);
  EXPECT_EQ(map->scale(3), 1.0);
  EXPECT_TRUE(map->angular(3));

  FeatureLayout rect_layout = FeatureLayout::Paper();
  rect_layout.space = CoordinateSpace::kRectangular;
  FeatureSpace rect(rect_layout);
  EXPECT_TRUE(rect.ToAffineMap(t).status().IsInvalidArgument());
}

TEST(FeatureSpaceTest, ShiftLowersInRectNotPolar) {
  const size_t n = 128;
  FeatureLayout rect_layout = FeatureLayout::Agrawal(3);
  FeatureSpace rect(rect_layout);
  FeatureTransform t = FeatureTransform::Spectral(transforms::Shift(n, 5.0));
  auto map = rect.ToAffineMap(t);
  ASSERT_TRUE(map.ok());
  // Shift's b hits only X_0: offset on dims (0,1) = (Re, Im) of b_0.
  EXPECT_NEAR(map->offset(0), 5.0 * std::sqrt(128.0), 1e-9);
  EXPECT_NEAR(map->offset(1), 0.0, 1e-12);

  FeatureSpace polar(FeatureLayout::Paper());
  EXPECT_TRUE(polar.ToAffineMap(t).status().IsInvalidArgument());
}

TEST(FeatureSpaceTest, MeanStdDimensionsFollowTheTransform) {
  FeatureSpace space(FeatureLayout::Paper());
  FeatureTransform t = FeatureTransform::ShiftScale(128, 3.0, -2.0);
  auto map = space.ToAffineMap(t);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->scale(0), -2.0);   // mean scales by the factor
  EXPECT_EQ(map->offset(0), 3.0);   // and shifts by delta
  EXPECT_EQ(map->scale(1), 2.0);    // std scales by |factor|
  EXPECT_EQ(map->offset(1), 0.0);
  // The normal-form spectrum is untouched by shift/scale.
  EXPECT_EQ(map->scale(2), 1.0);
  EXPECT_EQ(map->offset(3), 0.0);
}

TEST(FeatureSpaceTest, TransformedPointMatchesTransformedSpectrumProperty) {
  // Lowering correctness: mapping the feature point == extracting features
  // of the transformed spectrum, for polar-safe transforms.
  Rng rng(6);
  FeatureSpace space(FeatureLayout::Paper());
  FeatureExtractor extractor(FeatureLayout::Paper());
  const size_t n = 64;
  LinearTransform spectral = transforms::MovingAverage(n, 7);
  FeatureTransform t = FeatureTransform::Spectral(spectral);
  auto map = space.ToAffineMap(t);
  ASSERT_TRUE(map.ok());
  for (int trial = 0; trial < 50; ++trial) {
    RealVec x = RandomRealVec(&rng, n, 10.0, 50.0);
    SeriesFeatures f = extractor.Extract(x);
    spatial::Point p = extractor.ToPoint(f);
    spatial::Point mapped = map->Apply(p);
    ComplexVec transformed = spectral.Apply(f.spectrum);
    spatial::Point expected = extractor.ToPointFromCoefficients(
        extractor.StoredCoefficients(transformed), f.mean, f.std);
    ASSERT_EQ(mapped.size(), expected.size());
    for (size_t d = 0; d < mapped.size(); ++d) {
      // Angles may legitimately differ when the magnitude is ~0.
      if (space.layout().space == CoordinateSpace::kPolar && (d == 3 || d == 5)
          && std::abs(expected[d - 1]) < 1e-12) {
        continue;
      }
      EXPECT_NEAR(mapped[d], expected[d], 1e-9) << "dim " << d;
    }
  }
}

TEST(FeatureSpaceTest, SpectralDistanceMatchesComplexDistance) {
  Rng rng(7);
  for (const CoordinateSpace space_kind :
       {CoordinateSpace::kRectangular, CoordinateSpace::kPolar}) {
    FeatureLayout layout = FeatureLayout::Paper();
    layout.space = space_kind;
    FeatureSpace space(layout);
    FeatureExtractor extractor(layout);
    for (int trial = 0; trial < 30; ++trial) {
      ComplexVec a = testing::RandomComplexVec(&rng, 2);
      ComplexVec b = testing::RandomComplexVec(&rng, 2);
      spatial::Point pa = extractor.ToPointFromCoefficients(a, 0, 1);
      spatial::Point pb = extractor.ToPointFromCoefficients(b, 5, 9);
      EXPECT_NEAR(std::sqrt(space.SpectralDistanceSquared(pa, pb)),
                  cvec::Distance(a, b), 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Polar NN metric (annular sectors)
// ---------------------------------------------------------------------------

class PolarMetricTest : public ::testing::Test {
 protected:
  FeatureLayout MakeLayout() {
    FeatureLayout layout;
    layout.space = CoordinateSpace::kPolar;
    layout.include_mean_std = false;
    layout.first_coefficient = 0;
    layout.num_coefficients = 1;
    return layout;
  }
};

TEST_F(PolarMetricTest, ExactOnDegenerateRects) {
  FeatureLayout layout = MakeLayout();
  FeatureSpace space(layout);
  FeatureExtractor extractor(layout);
  Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    ComplexVec q = testing::RandomComplexVec(&rng, 1, -4.0, 4.0);
    ComplexVec v = testing::RandomComplexVec(&rng, 1, -4.0, 4.0);
    auto metric =
        space.MakeNnMetric(extractor.ToPointFromCoefficients(q, 0, 0));
    spatial::Rect point_rect = spatial::Rect::FromPoint(
        extractor.ToPointFromCoefficients(v, 0, 0));
    EXPECT_NEAR(std::sqrt(metric->MinDistSquared(point_rect)),
                std::abs(q[0] - v[0]), 1e-9);
  }
}

TEST_F(PolarMetricTest, LowerBoundsSampledSectorPointsProperty) {
  FeatureLayout layout = MakeLayout();
  FeatureSpace space(layout);
  FeatureExtractor extractor(layout);
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const double m0 = rng.Uniform(0.0, 3.0);
    const double m1 = m0 + rng.Uniform(0.0, 2.0);
    double t0 = rng.Uniform(-kPi, kPi);
    double t1 = t0 + rng.Uniform(0.0, kPi - 0.01);
    if (t1 > kPi) {  // keep the interval inside the canonical range
      const double shift = t1 - kPi;
      t0 -= shift;
      t1 = kPi;
    }
    spatial::Rect sector({m0, t0}, {m1, t1});
    ComplexVec q = testing::RandomComplexVec(&rng, 1, -4.0, 4.0);
    auto metric =
        space.MakeNnMetric(extractor.ToPointFromCoefficients(q, 0, 0));
    const double bound = metric->MinDistSquared(sector);
    for (int s = 0; s < 20; ++s) {
      const double r = rng.Uniform(m0, m1);
      const double theta = rng.Uniform(t0, t1);
      const Complex v = std::polar(r, theta);
      const double actual = std::norm(q[0] - v);
      EXPECT_LE(bound, actual + 1e-9)
          << "sector [" << m0 << "," << m1 << "]x[" << t0 << "," << t1
          << "] q=" << q[0];
    }
  }
}

TEST_F(PolarMetricTest, ZeroForContainedQuery) {
  FeatureLayout layout = MakeLayout();
  FeatureSpace space(layout);
  FeatureExtractor extractor(layout);
  const Complex q = std::polar(2.0, 0.3);
  auto metric = space.MakeNnMetric(extractor.ToPointFromCoefficients({q}, 0, 0));
  spatial::Rect sector({1.0, 0.0}, {3.0, 1.0});
  EXPECT_EQ(metric->MinDistSquared(sector), 0.0);
}

TEST_F(PolarMetricTest, FullCircleSectorIsRadialGap) {
  FeatureLayout layout = MakeLayout();
  FeatureSpace space(layout);
  FeatureExtractor extractor(layout);
  const Complex q = std::polar(5.0, 1.0);
  auto metric = space.MakeNnMetric(extractor.ToPointFromCoefficients({q}, 0, 0));
  spatial::Rect annulus({1.0, -kPi}, {2.0, kPi});
  EXPECT_NEAR(std::sqrt(metric->MinDistSquared(annulus)), 3.0, 1e-9);
  spatial::Rect containing({4.0, -kPi}, {6.0, kPi});
  EXPECT_EQ(metric->MinDistSquared(containing), 0.0);
}

// ---------------------------------------------------------------------------
// The metrics' cheap key (kNN's lazy ranking of unmerged entries)
// ---------------------------------------------------------------------------

TEST(NnMetricCheapKeyTest, NeverExceedsMinDistOnPointRects) {
  // IndexKnnQuery ranks unmerged entries by CheapMinDistSquared and
  // computes MinDistSquared only for the entry at the front of its heap;
  // that visits entries in exact bound order only while the cheap key is
  // at most the exact one, compared as raw doubles. Checked on random
  // walks' points and on random coefficients spanning twelve decades, in
  // both coordinate spaces, plain and through every builtin transform.
  constexpr size_t n = 128;
  namespace tr = transforms;
  const RealVec weights = {0.5, 0.3, 0.2};
  const std::vector<std::pair<std::string, std::optional<FeatureTransform>>>
      transforms = {
          {"none", std::nullopt},
          {"mavg", FeatureTransform::Spectral(tr::MovingAverage(n, 3))},
          {"wmavg",
           FeatureTransform::Spectral(tr::WeightedMovingAverage(n, weights))},
          {"ewma", FeatureTransform::Spectral(
                       tr::ExponentialMovingAverage(n, 0.5, 3))},
          {"mavg^2",
           FeatureTransform::Spectral(tr::SuccessiveMovingAverage(n, 3, 2))},
          {"diff", FeatureTransform::Spectral(tr::Difference(n))},
          {"reverse", FeatureTransform::Spectral(tr::Reverse(n))},
          {"shift", FeatureTransform::Spectral(tr::Shift(n, 1.5))},
          {"scale", FeatureTransform::Spectral(tr::Scale(n, -2.5))},
          {"warp", FeatureTransform::Spectral(tr::TimeWarp(n, 2, n / 2 + 1))},
          {"shiftscale", FeatureTransform::ShiftScale(n, 3.0, -2.0)},
      };
  FeatureLayout rectangular = FeatureLayout::Paper();
  rectangular.space = CoordinateSpace::kRectangular;
  const std::vector<std::pair<std::string, FeatureLayout>> layouts = {
      {"polar", FeatureLayout::Paper()},
      {"rectangular", rectangular},
      {"agrawal3", FeatureLayout::Agrawal(3)}};

  Rng rng(26);
  std::set<std::string> covered;
  const std::vector<TimeSeries> walks =
      workload::MakeRandomWalkDataset(26, 160, n);
  for (const auto& [layout_name, layout] : layouts) {
    SCOPED_TRACE(layout_name);
    const FeatureSpace space(layout);
    const FeatureExtractor& extractor = space.extractor();
    std::vector<spatial::Point> points;
    for (const TimeSeries& walk : walks) {
      points.push_back(extractor.ToPoint(extractor.Extract(walk.values())));
    }
    for (int i = 0; i < 160; ++i) {
      const double scale = std::pow(10.0, rng.Uniform(-6.0, 6.0));
      points.push_back(extractor.ToPointFromCoefficients(
          testing::RandomComplexVec(&rng, layout.num_coefficients, -scale,
                                    scale),
          rng.Uniform(-5.0, 5.0), rng.Uniform(0.0, 5.0)));
    }
    size_t strictly_below = 0;
    for (const auto& [transform_name, transform] : transforms) {
      SCOPED_TRACE(transform_name);
      std::optional<spatial::AffineMap> map;
      if (transform.has_value()) {
        auto made = space.ToAffineMap(*transform);
        if (!made.ok()) continue;  // not safe in this space
        map = std::move(*made);
      }
      covered.insert(transform_name);
      for (size_t q = 0; q < points.size(); q += 9) {
        const auto metric = space.MakeNnMetric(points[q]);
        for (const spatial::Point& p : points) {
          spatial::Rect rect = spatial::Rect::FromPoint(p);
          if (map.has_value()) map->ApplyInto(rect, &rect);
          const double cheap = metric->CheapMinDistSquared(rect);
          const double exact = metric->MinDistSquared(rect);
          ASSERT_LE(cheap, exact) << "query " << q;
          if (layout.space == CoordinateSpace::kRectangular) {
            ASSERT_EQ(cheap, exact);  // Srect's key is the bound itself
          }
          strictly_below += cheap < exact;
        }
      }
    }
    if (layout.space == CoordinateSpace::kPolar) {
      EXPECT_GT(strictly_below, 0u);  // the key really skips the angles
    }
  }
  // Each transform is safe in at least one of the two spaces.
  EXPECT_EQ(covered.size(), transforms.size());
}

}  // namespace
}  // namespace tsq

namespace tsq {
namespace {

// ---------------------------------------------------------------------------
// Join predicate geometry (tree-match join pruning bound)
// ---------------------------------------------------------------------------

class JoinPredicateTest : public ::testing::Test {
 protected:
  FeatureLayout PolarLayout() {
    FeatureLayout layout;
    layout.space = CoordinateSpace::kPolar;
    layout.include_mean_std = false;
    layout.first_coefficient = 0;
    layout.num_coefficients = 1;
    return layout;
  }
};

TEST_F(JoinPredicateTest, RectSpaceLowerBoundsSampledPairsProperty) {
  FeatureLayout layout = FeatureLayout::Agrawal(2);
  FeatureSpace space(layout);
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    spatial::Rect a = testing::RandomRect(&rng, 4, -10.0, 10.0);
    spatial::Rect b = testing::RandomRect(&rng, 4, -10.0, 10.0);
    const double bound = space.MinSpectralDistanceBetweenRects(a, b);
    for (int s = 0; s < 10; ++s) {
      spatial::Point pa(4), pb(4);
      for (size_t d = 0; d < 4; ++d) {
        pa[d] = rng.Uniform(a.lo(d), a.hi(d));
        pb[d] = rng.Uniform(b.lo(d), b.hi(d));
      }
      EXPECT_LE(bound,
                std::sqrt(space.SpectralDistanceSquared(pa, pb)) + 1e-9);
    }
  }
}

TEST_F(JoinPredicateTest, PolarSectorBoundLowerBoundsSampledPairsProperty) {
  FeatureSpace space(PolarLayout());
  Rng rng(42);
  constexpr double kPiLocal = 3.14159265358979323846;
  auto random_sector = [&rng, kPiLocal]() {
    const double m0 = rng.Uniform(0.0, 3.0);
    const double m1 = m0 + rng.Uniform(0.0, 2.0);
    double t0 = rng.Uniform(-kPiLocal, kPiLocal - 0.02);
    double t1 = std::min(kPiLocal, t0 + rng.Uniform(0.0, kPiLocal));
    return spatial::Rect({m0, t0}, {m1, t1});
  };
  for (int trial = 0; trial < 200; ++trial) {
    spatial::Rect a = random_sector();
    spatial::Rect b = random_sector();
    const double bound = space.MinSpectralDistanceBetweenRects(a, b);
    for (int s = 0; s < 10; ++s) {
      const Complex ca =
          std::polar(rng.Uniform(a.lo(0), a.hi(0)),
                     rng.Uniform(a.lo(1), a.hi(1)));
      const Complex cb =
          std::polar(rng.Uniform(b.lo(0), b.hi(0)),
                     rng.Uniform(b.lo(1), b.hi(1)));
      EXPECT_LE(bound, std::abs(ca - cb) + 1e-9)
          << "a=" << a.ToString() << " b=" << b.ToString();
    }
  }
}

TEST_F(JoinPredicateTest, DegenerateSectorsGiveNearExactDistances) {
  // Point sectors reduce to Cartesian boxes of single points; the bound
  // becomes the exact complex distance.
  FeatureSpace space(PolarLayout());
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const Complex ca(rng.Uniform(-3, 3), rng.Uniform(-3, 3));
    const Complex cb(rng.Uniform(-3, 3), rng.Uniform(-3, 3));
    FeatureExtractor extractor(PolarLayout());
    spatial::Rect a = spatial::Rect::FromPoint(
        extractor.ToPointFromCoefficients({ca}, 0, 0));
    spatial::Rect b = spatial::Rect::FromPoint(
        extractor.ToPointFromCoefficients({cb}, 0, 0));
    EXPECT_NEAR(space.MinSpectralDistanceBetweenRects(a, b),
                std::abs(ca - cb), 1e-9);
  }
}

TEST_F(JoinPredicateTest, PredicateAcceptsOverlapsRejectsFarApart) {
  FeatureSpace space(PolarLayout());
  auto pred = space.MakeJoinPredicate(0.5);
  // Two identical sectors: distance 0, must accept.
  spatial::Rect a({1.0, 0.0}, {2.0, 1.0});
  EXPECT_TRUE(pred(a, a));
  // Far-apart magnitudes: must reject.
  spatial::Rect far({10.0, 0.0}, {11.0, 1.0});
  EXPECT_FALSE(pred(a, far));
}

}  // namespace
}  // namespace tsq
