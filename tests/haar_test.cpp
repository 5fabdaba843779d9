// Copyright (c) 2026 The tsq Authors.
//
// Tests for the Haar wavelet basis: orthonormality (Parseval / distance
// preservation), inverse round trip, known coefficients, energy
// concentration on random walks, and full database parity when the index
// runs on Haar features instead of DFT features.

#include <cmath>
#include <set>

#include "common/random.h"
#include "core/database.h"
#include "dft/dft.h"
#include "dft/haar.h"
#include "gtest/gtest.h"
#include "series/distance.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::ExpectRealNear;
using testing::RandomRealVec;
using testing::Range;
using testing::Scan;
using testing::TempDir;

TEST(HaarTest, ValidLengths) {
  EXPECT_TRUE(haar::IsValidLength(1));
  EXPECT_TRUE(haar::IsValidLength(2));
  EXPECT_TRUE(haar::IsValidLength(64));
  EXPECT_FALSE(haar::IsValidLength(0));
  EXPECT_FALSE(haar::IsValidLength(3));
  EXPECT_FALSE(haar::IsValidLength(100));
}

TEST(HaarTest, KnownSmallTransform) {
  // n = 2: out = ((a+b)/sqrt2, (a-b)/sqrt2).
  RealVec out = haar::Forward({3.0, 1.0});
  EXPECT_NEAR(out[0], 4.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(out[1], 2.0 / std::sqrt(2.0), 1e-12);
  // Constant signal: all energy in coefficient 0.
  RealVec flat = haar::Forward(RealVec(8, 5.0));
  EXPECT_NEAR(flat[0], 5.0 * std::sqrt(8.0), 1e-12);
  for (size_t i = 1; i < 8; ++i) EXPECT_NEAR(flat[i], 0.0, 1e-12);
}

class HaarRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HaarRoundTripTest, InverseRecoversInput) {
  const size_t n = GetParam();
  Rng rng(n + 3);
  RealVec x = RandomRealVec(&rng, n);
  ExpectRealNear(haar::Inverse(haar::Forward(x)), x, 1e-9);
}

TEST_P(HaarRoundTripTest, OrthonormalityPreservesDistances) {
  const size_t n = GetParam();
  Rng rng(n + 4);
  RealVec x = RandomRealVec(&rng, n);
  RealVec y = RandomRealVec(&rng, n);
  EXPECT_NEAR(EuclideanDistance(haar::Forward(x), haar::Forward(y)),
              EuclideanDistance(x, y), 1e-9);
  EXPECT_NEAR(cvec::Energy(haar::Forward(x)), cvec::Energy(x), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Lengths, HaarRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 64, 128, 1024));

TEST(HaarTest, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(haar::Forward(RealVec(12, 1.0)), "power-of-two");
}

TEST(HaarTest, CoarseCoefficientsCaptureRandomWalkEnergy) {
  // The basis-choice premise: random-walk energy concentrates in the first
  // few coarse coefficients, just as with the DFT.
  Rng rng(5);
  double worst = 1.0;
  for (int trial = 0; trial < 20; ++trial) {
    RealVec x = workload::RandomWalkSeries(&rng, 128, {});
    RealVec h = haar::Forward(x);
    double head = 0.0;
    double total = 0.0;
    for (size_t i = 0; i < h.size(); ++i) {
      total += h[i] * h[i];
      if (i < 8) head += h[i] * h[i];
    }
    worst = std::min(worst, head / total);
  }
  EXPECT_GT(worst, 0.9);
}

TEST(HaarTest, LayoutValidation) {
  FeatureLayout layout = FeatureLayout::Haar(4);
  EXPECT_TRUE(layout.Validate(128).ok());
  EXPECT_TRUE(layout.Validate(100).IsInvalidArgument());  // not a power of 2
  layout.space = CoordinateSpace::kPolar;
  EXPECT_TRUE(layout.Validate(128).IsInvalidArgument());
}

TEST(HaarTest, DatabaseParityIndexVsScan) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "haar";
  options.layout = FeatureLayout::Haar(4);
  auto db = Database::Create(options).value();
  auto data = workload::MakeRandomWalkDataset(606, 300, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  Rng rng(6);
  for (double eps : {0.5, 2.0, 6.0}) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    auto via_scan = Scan(db.get(), query, eps);
    ASSERT_TRUE(via_scan.ok());
    std::set<SeriesId> a, b;
    for (const Match& m : *via_index) a.insert(m.id);
    for (const Match& m : *via_scan) b.insert(m.id);
    EXPECT_EQ(a, b) << "eps=" << eps;
  }
}

TEST(HaarTest, ScaleTransformWorksOnHaarFeatures) {
  // Real-stretch transforms act coefficient-wise in any orthonormal basis:
  // scaling the series scales every Haar coefficient identically.
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "haar_scale";
  options.layout = FeatureLayout::Haar(4);
  auto db = Database::Create(options).value();
  auto data = workload::MakeRandomWalkDataset(607, 100, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::Scale(64, -1.0));
  spec.mode = TransformMode::kDataOnly;
  Rng rng(7);
  const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
  auto via_index = Range(db.get(), query, 4.0, spec);
  ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
  auto via_scan = Scan(db.get(), query, 4.0, spec);
  ASSERT_TRUE(via_scan.ok());
  ASSERT_EQ(via_index->size(), via_scan->size());
}

// ---------------------------------------------------------------------------
// Difference transform (momentum)
// ---------------------------------------------------------------------------

TEST(DifferenceTransformTest, MatchesTimeDomainDifference) {
  Rng rng(8);
  const size_t n = 32;
  RealVec x = RandomRealVec(&rng, n);
  LinearTransform t = transforms::Difference(n);
  RealVec via_freq = dft::InverseReal(t.Apply(dft::Forward(x)));
  RealVec expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] = x[i] - x[(i + n - 1) % n];
  }
  ExpectRealNear(via_freq, expected, 1e-8);
  EXPECT_TRUE(t.IsSafePolar());
  EXPECT_EQ(t.name(), "diff");
}

TEST(DifferenceTransformTest, KillsConstantSignals) {
  LinearTransform t = transforms::Difference(16);
  RealVec flat(16, 7.0);
  RealVec out = dft::InverseReal(t.Apply(dft::Forward(flat)));
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(DifferenceTransformTest, QueryParityThroughIndex) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "diffdb";
  auto db = Database::Create(options).value();
  auto data = workload::MakeRandomWalkDataset(608, 200, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::Difference(64));
  Rng rng(9);
  for (double eps : {0.5, 2.0}) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps, spec);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    auto via_scan = Scan(db.get(), query, eps, spec);
    ASSERT_TRUE(via_scan.ok());
    std::set<SeriesId> a, b;
    for (const Match& m : *via_index) a.insert(m.id);
    for (const Match& m : *via_scan) b.insert(m.id);
    EXPECT_EQ(a, b) << "eps=" << eps;
  }
}

}  // namespace
}  // namespace tsq
