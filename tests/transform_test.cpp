// Copyright (c) 2026 The tsq Authors.
//
// Tests for the transformation framework: the (a, b) algebra, safety
// predicates (Theorems 2/3), every built-in transformation against its
// time-domain ground truth (moving average == circular convolution,
// reverse == negation, shift/scale, Appendix A time warp), and the Eq. 10
// cost-bounded distance.

#include <cmath>

#include "common/random.h"
#include "dft/dft.h"
#include "gtest/gtest.h"
#include "series/distance.h"
#include "series/moving_average.h"
#include "series/normal_form.h"
#include "series/warp.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "transform/cost_model.h"
#include "transform/linear_transform.h"

namespace tsq {
namespace {

using testing::ExpectComplexNear;
using testing::ExpectRealNear;
using testing::RandomComplexVec;
using testing::RandomRealVec;

// ---------------------------------------------------------------------------
// LinearTransform algebra
// ---------------------------------------------------------------------------

TEST(LinearTransformTest, IdentityLeavesVectorsUnchanged) {
  Rng rng(1);
  ComplexVec x = RandomComplexVec(&rng, 16);
  LinearTransform id = LinearTransform::Identity(16);
  EXPECT_TRUE(id.IsIdentity());
  ExpectComplexNear(id.Apply(x), x, 0.0);
  EXPECT_EQ(id.cost(), 0.0);
  EXPECT_EQ(id.name(), "identity");
}

TEST(LinearTransformTest, ApplyComputesAxPlusB) {
  LinearTransform t({Complex(2, 0), Complex(0, 1)},
                    {Complex(1, 0), Complex(0, -1)});
  ComplexVec x = {Complex(3, 0), Complex(1, 1)};
  ComplexVec y = t.Apply(x);
  EXPECT_EQ(y[0], Complex(7, 0));           // 2*3 + 1
  EXPECT_EQ(y[1], Complex(-1, 0));          // i*(1+i) - i = -1 + i - i
}

TEST(LinearTransformTest, ComposeMatchesSequentialApplication) {
  Rng rng(3);
  LinearTransform f(RandomComplexVec(&rng, 8), RandomComplexVec(&rng, 8), 1.5,
                    "f");
  LinearTransform g(RandomComplexVec(&rng, 8), RandomComplexVec(&rng, 8), 2.0,
                    "g");
  ComplexVec x = RandomComplexVec(&rng, 8);
  ExpectComplexNear(f.Compose(g).Apply(x), f.Apply(g.Apply(x)), 1e-9);
  EXPECT_EQ(f.Compose(g).cost(), 3.5);
}

TEST(LinearTransformTest, SafetyPredicates) {
  const size_t n = 8;
  // Real a, complex b: safe in Srect, unsafe in Spol (b != 0).
  LinearTransform rect_safe(ComplexVec(n, Complex(2.0, 0.0)),
                            ComplexVec(n, Complex(1.0, 1.0)));
  EXPECT_TRUE(rect_safe.IsSafeRect());
  EXPECT_FALSE(rect_safe.IsSafePolar());
  // Complex a, zero b: safe in Spol, unsafe in Srect.
  LinearTransform polar_safe(ComplexVec(n, Complex(1.0, 2.0)),
                             ComplexVec(n, Complex(0.0, 0.0)));
  EXPECT_FALSE(polar_safe.IsSafeRect());
  EXPECT_TRUE(polar_safe.IsSafePolar());
  // Real a, zero b: safe in both (Theorem 1 territory).
  LinearTransform both(ComplexVec(n, Complex(-1.0, 0.0)),
                       ComplexVec(n, Complex(0.0, 0.0)));
  EXPECT_TRUE(both.IsSafeRect());
  EXPECT_TRUE(both.IsSafePolar());
}

TEST(LinearTransformTest, TheoremTwoCounterexample) {
  // The paper's counterexample after Theorem 2: multiplying by s = 2 - 3i
  // does not preserve rectangle membership in Srect. Point r is inside the
  // rectangle [p, q] but s*r is outside [s*p, s*q] (after corner repair).
  const Complex p(-5, -5), q(5, 5), r(-2, 2), s(2, -3);
  const Complex pp = p * s, qq = q * s, rr = r * s;
  const double lo_re = std::min(pp.real(), qq.real());
  const double hi_re = std::max(pp.real(), qq.real());
  const double lo_im = std::min(pp.imag(), qq.imag());
  const double hi_im = std::max(pp.imag(), qq.imag());
  const bool inside = rr.real() >= lo_re && rr.real() <= hi_re &&
                      rr.imag() >= lo_im && rr.imag() <= hi_im;
  EXPECT_FALSE(inside);  // r*s = 2+10i escapes the transformed rectangle
}

// ---------------------------------------------------------------------------
// Built-in transformations vs time-domain ground truth
// ---------------------------------------------------------------------------

class MovingAverageTransformTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MovingAverageTransformTest, FrequencyDomainEqualsTimeDomain) {
  // Sec. 3.2: applying Tmavg in the frequency domain and transforming back
  // equals the circular moving average in the time domain.
  const size_t window = GetParam();
  Rng rng(window + 100);
  const size_t n = 32;
  RealVec x = RandomRealVec(&rng, n);
  LinearTransform t = transforms::MovingAverage(n, window);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  ExpectRealNear(via_freq, CircularMovingAverage(x, window), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Windows, MovingAverageTransformTest,
                         ::testing::Values(1, 2, 3, 5, 8, 20, 32));

TEST(BuiltinTransformTest, MovingAverageIsPolarSafe) {
  LinearTransform t = transforms::MovingAverage(128, 20);
  EXPECT_TRUE(t.IsSafePolar());
  EXPECT_FALSE(t.IsSafeRect());  // transfer function is genuinely complex
  EXPECT_EQ(t.name(), "mavg20");
}

TEST(BuiltinTransformTest, PaperExampleM3TransferFunction) {
  // Sec. 3.2 uses ~m3 = (1/3, 1/3, 1/3, 0, ..., 0) of length 15; Tmavg3's
  // `a` is its (unscaled) DFT. Check a few closed-form values.
  LinearTransform t = transforms::MovingAverage(15, 3);
  // a_0 = sum of kernel = 1.
  EXPECT_NEAR(t.a()[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(t.a()[0].imag(), 0.0, 1e-12);
  // |a_f| = |sin(3 pi f / 15)| / (3 |sin(pi f / 15)|).
  for (size_t f = 1; f < 15; ++f) {
    const double num = std::abs(std::sin(3.0 * M_PI * f / 15.0));
    const double den = 3.0 * std::abs(std::sin(M_PI * f / 15.0));
    EXPECT_NEAR(std::abs(t.a()[f]), num / den, 1e-9) << "f=" << f;
  }
}

TEST(BuiltinTransformTest, WeightedMovingAverageMatchesTimeDomain) {
  Rng rng(5);
  const size_t n = 24;
  RealVec x = RandomRealVec(&rng, n);
  const RealVec weights = {0.5, 0.3, 0.2};  // trailing-weighted smoothing
  LinearTransform t = transforms::WeightedMovingAverage(n, weights);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  ExpectRealNear(via_freq, CircularWeightedMovingAverage(x, weights), 1e-8);
}

TEST(BuiltinTransformTest, SuccessiveMovingAverageMatchesRepeated) {
  Rng rng(6);
  const size_t n = 30;
  RealVec x = RandomRealVec(&rng, n);
  LinearTransform t = transforms::SuccessiveMovingAverage(n, 5, 3);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  ExpectRealNear(via_freq, SuccessiveCircularMovingAverage(x, 5, 3), 1e-8);
}

TEST(BuiltinTransformTest, ReverseNegatesInTimeDomain) {
  // Ex. 2.2 / Sec. 3.2: Trev applied in frequency space == multiplying
  // every closing price by -1.
  Rng rng(7);
  const size_t n = 40;
  RealVec x = RandomRealVec(&rng, n);
  LinearTransform t = transforms::Reverse(n);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  RealVec negated(n);
  for (size_t i = 0; i < n; ++i) negated[i] = -x[i];
  ExpectRealNear(via_freq, negated, 1e-9);
  EXPECT_TRUE(t.IsSafeRect());
  EXPECT_TRUE(t.IsSafePolar());
}

TEST(BuiltinTransformTest, ShiftAddsConstantInTimeDomain) {
  Rng rng(8);
  const size_t n = 20;
  RealVec x = RandomRealVec(&rng, n);
  LinearTransform t = transforms::Shift(n, 7.5);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  RealVec shifted(n);
  for (size_t i = 0; i < n; ++i) shifted[i] = x[i] + 7.5;
  ExpectRealNear(via_freq, shifted, 1e-9);
  EXPECT_TRUE(t.IsSafeRect());
  EXPECT_FALSE(t.IsSafePolar());  // b != 0
}

TEST(BuiltinTransformTest, ScaleMultipliesInTimeDomain) {
  Rng rng(9);
  const size_t n = 20;
  RealVec x = RandomRealVec(&rng, n);
  for (double factor : {2.0, -0.5}) {  // negative scales explicitly allowed
    LinearTransform t = transforms::Scale(n, factor);
    RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
    RealVec scaled(n);
    for (size_t i = 0; i < n; ++i) scaled[i] = factor * x[i];
    ExpectRealNear(via_freq, scaled, 1e-9);
    EXPECT_TRUE(t.IsSafeRect());
    EXPECT_TRUE(t.IsSafePolar());
  }
}

// --- time warp (Appendix A) ------------------------------------------------

class TimeWarpTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(TimeWarpTest, UnitaryConventionMatchesStretchedSpectrum) {
  // a_f * S_f must equal the f-th unitary DFT coefficient of the m-fold
  // stretched series, for all indexed f.
  const auto [n, m] = GetParam();
  Rng rng(n * 31 + m);
  const size_t k = std::min<size_t>(n, 6);
  RealVec x = RandomRealVec(&rng, n);
  ComplexVec S = dft::Forward(x);
  ComplexVec S_warped = dft::Forward(StretchTime(x, m));

  LinearTransform t =
      transforms::TimeWarp(n, m, k, transforms::WarpConvention::kUnitary);
  ComplexVec predicted = t.Apply(S);
  for (size_t f = 0; f < k; ++f) {
    EXPECT_NEAR(predicted[f].real(), S_warped[f].real(), 1e-8)
        << "f=" << f << " n=" << n << " m=" << m;
    EXPECT_NEAR(predicted[f].imag(), S_warped[f].imag(), 1e-8)
        << "f=" << f << " n=" << n << " m=" << m;
  }
}

TEST_P(TimeWarpTest, PaperConventionDiffersBySqrtM) {
  const auto [n, m] = GetParam();
  const size_t k = std::min<size_t>(n, 6);
  LinearTransform paper =
      transforms::TimeWarp(n, m, k, transforms::WarpConvention::kPaper);
  LinearTransform unitary =
      transforms::TimeWarp(n, m, k, transforms::WarpConvention::kUnitary);
  for (size_t f = 0; f < k; ++f) {
    EXPECT_NEAR(std::abs(paper.a()[f]),
                std::abs(unitary.a()[f]) * std::sqrt(static_cast<double>(m)),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TimeWarpTest,
    ::testing::Combine(::testing::Values(4, 8, 15, 32),
                       ::testing::Values(1, 2, 3, 5)));

TEST(TimeWarpTest, PaperFigure2Example) {
  // Ex. 1.2 / Appendix A: the warp transform maps ~p's coefficients onto
  // ~s's coefficients (m = 2, n = 4).
  const RealVec p = {20, 21, 20, 23};
  const RealVec s = StretchTime(p, 2);
  ComplexVec P = dft::Forward(p);
  ComplexVec S = dft::Forward(s);
  LinearTransform t =
      transforms::TimeWarp(4, 2, 4, transforms::WarpConvention::kUnitary);
  ComplexVec predicted = t.Apply(P);
  for (size_t f = 0; f < 4; ++f) {
    EXPECT_NEAR(predicted[f].real(), S[f].real(), 1e-9);
    EXPECT_NEAR(predicted[f].imag(), S[f].imag(), 1e-9);
  }
  EXPECT_TRUE(t.IsSafePolar());
}

TEST(TimeWarpTest, WarpFactorOneIsIdentityOnPrefix) {
  LinearTransform t =
      transforms::TimeWarp(16, 1, 8, transforms::WarpConvention::kUnitary);
  for (size_t f = 0; f < 8; ++f) {
    EXPECT_NEAR(t.a()[f].real(), 1.0, 1e-12);
    EXPECT_NEAR(t.a()[f].imag(), 0.0, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Eq. 10 cost-bounded distance
// ---------------------------------------------------------------------------

TEST(CostedDistanceTest, NoTransformsReducesToEuclidean) {
  Rng rng(10);
  ComplexVec x = RandomComplexVec(&rng, 8);
  ComplexVec y = RandomComplexVec(&rng, 8);
  auto result = CostedDistance(x, y, {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, cvec::Distance(x, y), 1e-12);
  EXPECT_TRUE(result->applied_to_x.empty());
  EXPECT_TRUE(result->applied_to_y.empty());
}

TEST(CostedDistanceTest, ReverseBringsOppositesTogether) {
  // x and -x are far apart, but one application of Trev (cost 1) makes
  // them identical: D = 1 + 0.
  Rng rng(11);
  const size_t n = 16;
  RealVec xs = RandomRealVec(&rng, n);
  ComplexVec x = dft::Forward(xs);
  ComplexVec y = x;
  for (Complex& c : y) c = -c;
  ASSERT_GT(cvec::Distance(x, y), 2.0);

  auto result = CostedDistance(x, y, {transforms::Reverse(n, 1.0)});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 1.0, 1e-9);
  EXPECT_NEAR(result->transform_cost, 1.0, 1e-9);
  EXPECT_EQ(result->applied_to_x.size() + result->applied_to_y.size(), 1u);
}

TEST(CostedDistanceTest, PrefersCheaperOfTwoRoutes) {
  // Two transforms fix the mismatch: an expensive exact one and a cheap
  // partial one. The search must pick the cheaper total.
  const size_t n = 8;
  ComplexVec x(n, Complex(1.0, 0.0));
  ComplexVec y(n, Complex(2.0, 0.0));
  LinearTransform expensive = transforms::Scale(n, 2.0, /*cost=*/5.0);
  LinearTransform cheap = transforms::Scale(n, 2.0, /*cost=*/0.25);
  auto result = CostedDistance(x, y, {expensive, cheap});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, 0.25, 1e-9);
}

TEST(CostedDistanceTest, RespectsCostBudget) {
  const size_t n = 8;
  ComplexVec x(n, Complex(1.0, 0.0));
  ComplexVec y(n, Complex(-1.0, 0.0));
  const double d0 = cvec::Distance(x, y);
  CostedDistanceOptions options;
  options.cost_budget = 0.5;  // reverse costs 1.0: out of budget
  auto result = CostedDistance(x, y, {transforms::Reverse(n, 1.0)}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->distance, d0, 1e-9);  // falls back to D0
}

TEST(CostedDistanceTest, AppliesTransformsToBothSides) {
  // x needs smoothing AND y needs smoothing: T1(x), T2(y) branch of Eq. 10.
  Rng rng(12);
  const size_t n = 32;
  RealVec base = RandomRealVec(&rng, n);
  RealVec noisy_a(n);
  RealVec noisy_b(n);
  for (size_t i = 0; i < n; ++i) {
    noisy_a[i] = base[i] + rng.Uniform(-1.0, 1.0);
    noisy_b[i] = base[i] + rng.Uniform(-1.0, 1.0);
  }
  ComplexVec x = dft::Forward(noisy_a);
  ComplexVec y = dft::Forward(noisy_b);
  LinearTransform smooth = transforms::MovingAverage(n, 8, /*cost=*/0.1);
  auto result = CostedDistance(x, y, {smooth});
  ASSERT_TRUE(result.ok());
  // Smoothing both sides beats D0 and beats smoothing one side.
  EXPECT_LT(result->distance, cvec::Distance(x, y));
  // The optimum smooths BOTH sides (possibly more than once per side when
  // the extra cost pays for itself).
  EXPECT_GE(result->applied_to_x.size(), 1u);
  EXPECT_GE(result->applied_to_y.size(), 1u);
}

TEST(CostedDistanceTest, ValidatesArguments) {
  ComplexVec x(4), y(5);
  EXPECT_TRUE(CostedDistance(x, y, {}).status().IsInvalidArgument());
  ComplexVec z(4);
  EXPECT_TRUE(CostedDistance(x, z, {transforms::Reverse(8)})
                  .status()
                  .IsInvalidArgument());
  LinearTransform negative_cost = transforms::Reverse(4, -1.0);
  EXPECT_TRUE(CostedDistance(x, z, {negative_cost})
                  .status()
                  .IsInvalidArgument());
}

TEST(CostedDistanceTest, MaxStatesGuardTrips) {
  Rng rng(13);
  ComplexVec x = RandomComplexVec(&rng, 4);
  ComplexVec y = RandomComplexVec(&rng, 4);
  CostedDistanceOptions options;
  options.max_states = 2;
  options.max_applications_per_side = 4;
  std::vector<LinearTransform> many;
  for (int i = 0; i < 6; ++i) many.push_back(transforms::Reverse(4, 0.0));
  EXPECT_TRUE(CostedDistance(x, y, many, options)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace tsq

namespace tsq {
namespace {

// ---------------------------------------------------------------------------
// Exponential moving average (EWMA)
// ---------------------------------------------------------------------------

TEST(EwmaTest, WeightsDecayGeometricallyAndSumToOne) {
  RealVec w = ExponentialWeights(0.5, 4);
  ASSERT_EQ(w.size(), 4u);
  double sum = 0.0;
  for (size_t d = 0; d < 4; ++d) {
    sum += w[d];
    if (d > 0) {
      EXPECT_NEAR(w[d] / w[d - 1], 0.5, 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(EwmaTest, AlphaOneIsIdentityWindow) {
  RealVec w = ExponentialWeights(1.0, 5);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  for (size_t d = 1; d < 5; ++d) EXPECT_NEAR(w[d], 0.0, 1e-12);
}

TEST(EwmaTest, TransformMatchesTimeDomainWeightedAverage) {
  Rng rng(91);
  const size_t n = 48;
  RealVec x = testing::RandomRealVec(&rng, n);
  LinearTransform t = transforms::ExponentialMovingAverage(n, 0.3, 10);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  RealVec expected =
      CircularWeightedMovingAverage(x, ExponentialWeights(0.3, 10));
  testing::ExpectRealNear(via_freq, expected, 1e-8);
  EXPECT_TRUE(t.IsSafePolar());
  EXPECT_EQ(t.name(), "ewma10");
}

TEST(EwmaTest, SmoothsLessAggressivelyThanUniformWindow) {
  // EWMA front-loads the weight, so it tracks recent values more closely
  // than the uniform window of the same length: its output stays nearer
  // the raw series.
  Rng rng(92);
  const size_t n = 128;
  RealVec x = testing::RandomRealVec(&rng, n);
  RealVec ewma = CircularWeightedMovingAverage(x, ExponentialWeights(0.4, 20));
  RealVec uniform = CircularMovingAverage(x, 20);
  EXPECT_LT(EuclideanDistance(ewma, x), EuclideanDistance(uniform, x));
}

}  // namespace
}  // namespace tsq
