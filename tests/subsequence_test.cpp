// Copyright (c) 2026 The tsq Authors.
//
// Tests for the [FRM94]-style subsequence index: the sliding DFT against
// per-window transforms, trail-piece construction by Build's one STR
// packing, and index-vs-scan parity (no false dismissals for subsequence
// queries), parameterized over thresholds and trail-piece lengths.

#include <limits>
#include <set>
#include <tuple>

#include "common/random.h"
#include "core/subsequence.h"
#include "dft/dft.h"
#include "gtest/gtest.h"
#include "series/distance.h"
#include "test_util.h"
#include "workload/random_walk.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

using testing::TempDir;

// ---------------------------------------------------------------------------
// Sliding DFT
// ---------------------------------------------------------------------------

class SlidingDftTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SlidingDftTest, MatchesPerWindowTransforms) {
  const auto [length, window] = GetParam();
  Rng rng(length * 13 + window);
  RealVec x = testing::RandomRealVec(&rng, length, -5.0, 5.0);
  const size_t k = std::min<size_t>(4, window);

  auto spectra = SlidingWindowSpectra(x, window, k);
  ASSERT_EQ(spectra.size(), length - window + 1);
  for (size_t pos = 0; pos < spectra.size(); ++pos) {
    RealVec win(x.begin() + static_cast<ptrdiff_t>(pos),
                x.begin() + static_cast<ptrdiff_t>(pos + window));
    ComplexVec expected = dft::Truncate(dft::Forward(win), k);
    for (size_t f = 0; f < k; ++f) {
      EXPECT_NEAR(spectra[pos][f].real(), expected[f].real(), 1e-7)
          << "pos=" << pos << " f=" << f;
      EXPECT_NEAR(spectra[pos][f].imag(), expected[f].imag(), 1e-7)
          << "pos=" << pos << " f=" << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlidingDftTest,
    ::testing::Values(std::make_tuple(32u, 8u), std::make_tuple(100u, 17u),
                      std::make_tuple(600u, 64u),
                      std::make_tuple(1500u, 128u),  // crosses resync points
                      std::make_tuple(64u, 64u)));   // single window

TEST(SlidingDftTest, ValidatesArguments) {
  RealVec x(16, 1.0);
  EXPECT_DEATH(SlidingWindowSpectra(x, 0, 1), "window");
  EXPECT_DEATH(SlidingWindowSpectra(x, 17, 1), "window");
  EXPECT_DEATH(SlidingWindowSpectra(x, 8, 9), "coefficients");
}

// ---------------------------------------------------------------------------
// Index vs brute-force scan
// ---------------------------------------------------------------------------

class SubsequenceParityTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {
 protected:
  TempDir dir_;
};

std::set<std::pair<SeriesId, size_t>> Positions(
    const std::vector<SubsequenceMatch>& ms) {
  std::set<std::pair<SeriesId, size_t>> out;
  for (const auto& m : ms) out.insert({m.id, m.offset});
  return out;
}

TEST_P(SubsequenceParityTest, IndexMatchesScan) {
  const auto [eps, trail_piece] = GetParam();
  const size_t window = 32;

  SubsequenceIndexOptions options;
  options.window = window;
  options.coefficients = 3;
  options.trail_piece = trail_piece;
  options.path = dir_.file("subseq.pages");
  auto series = workload::MakeRandomWalkDataset(99, 40, 200);
  auto index = SubsequenceIndex::Build(options, series);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_windows(), 40u * (200 - window + 1));
  EXPECT_EQ((*index)->num_pieces(),
            40u * ((200 - window + 1 + trail_piece - 1) / trail_piece));
  auto check = (*index)->tree()->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;

  auto fetch = [&series](SeriesId id) -> Result<RealVec> {
    if (id >= series.size()) return Status::NotFound("no such series");
    return series[id].values();
  };

  Rng rng(7);
  for (int q = 0; q < 5; ++q) {
    // Queries drawn from the data (guaranteeing nonempty answers at small
    // eps) with a bit of noise.
    const RealVec& src = series[static_cast<size_t>(
                                    rng.UniformInt(0, 39))].values();
    const size_t off = static_cast<size_t>(rng.UniformInt(0, 200 - window));
    RealVec query(src.begin() + static_cast<ptrdiff_t>(off),
                  src.begin() + static_cast<ptrdiff_t>(off + window));
    for (double& v : query) v += rng.Uniform(-0.05, 0.05);

    std::vector<SubsequenceMatch> via_index;
    QueryStats stats;
    ASSERT_TRUE(
        (*index)->RangeSearch(query, eps, fetch, &via_index, &stats).ok());
    std::vector<SubsequenceMatch> via_scan;
    ASSERT_TRUE(ScanSubsequences(series, window, query, eps, &via_scan).ok());

    EXPECT_EQ(Positions(via_index), Positions(via_scan))
        << "eps=" << eps << " piece=" << trail_piece;
    ASSERT_EQ(via_index.size(), via_scan.size());
    for (size_t i = 0; i < via_index.size(); ++i) {
      EXPECT_NEAR(via_index[i].distance, via_scan[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsAndPieces, SubsequenceParityTest,
    ::testing::Combine(::testing::Values(0.5, 2.0, 8.0),
                       ::testing::Values(1u, 8u, 64u)));

// ---------------------------------------------------------------------------
// Behavior details
// ---------------------------------------------------------------------------

TEST(SubsequenceIndexTest, FindsExactOccurrenceAtZeroEps) {
  TempDir dir;
  SubsequenceIndexOptions options;
  options.window = 16;
  options.path = dir.file("s.pages");
  auto series = workload::MakeRandomWalkDataset(3, 5, 100);
  auto index = SubsequenceIndex::Build(options, series).value();
  // Query = the window of series 2 at offset 37, verbatim.
  RealVec query(series[2].values().begin() + 37,
                series[2].values().begin() + 37 + 16);
  std::vector<SubsequenceMatch> out;
  auto fetch = [&series](SeriesId id) -> Result<RealVec> {
    return series[id].values();
  };
  ASSERT_TRUE(index->RangeSearch(query, 1e-9, fetch, &out, nullptr).ok());
  ASSERT_FALSE(out.empty());
  bool found = false;
  for (const auto& m : out) {
    if (m.id == 2 && m.offset == 37) {
      found = true;
      EXPECT_NEAR(m.distance, 0.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SubsequenceIndexTest, CandidatesFarFewerThanWindows) {
  TempDir dir;
  SubsequenceIndexOptions options;
  options.window = 64;
  options.trail_piece = 16;
  options.path = dir.file("s.pages");
  auto series = workload::MakeRandomWalkDataset(5, 50, 256);
  auto index = SubsequenceIndex::Build(options, series).value();
  RealVec query(series[0].values().begin(),
                series[0].values().begin() + 64);
  std::vector<SubsequenceMatch> out;
  QueryStats stats;
  auto fetch = [&series](SeriesId id) -> Result<RealVec> {
    return series[id].values();
  };
  ASSERT_TRUE(index->RangeSearch(query, 1.0, fetch, &out, &stats).ok());
  // Trail pieces visited must be a small fraction of all pieces.
  EXPECT_LT(stats.candidates, index->num_pieces() / 4);
}

TEST(SubsequenceIndexTest, ValidatesArguments) {
  TempDir dir;
  std::vector<TimeSeries> series;
  series.emplace_back(RealVec(20, 1.0), "flat");
  SubsequenceIndexOptions options;
  options.window = 1;  // too small
  options.path = dir.file("s.pages");
  const auto invalid = [&options, &series]() {
    return SubsequenceIndex::Build(options, series)
        .status()
        .IsInvalidArgument();
  };
  EXPECT_TRUE(invalid());
  options.window = 16;
  options.coefficients = 0;
  EXPECT_TRUE(invalid());
  options.coefficients = 3;
  options.trail_piece = 0;
  EXPECT_TRUE(invalid());
  options.trail_piece = 8;
  // A series shorter than the window is refused, wherever it sits.
  series.emplace_back(RealVec(8, 1.0), "short");
  EXPECT_TRUE(invalid());
  series.pop_back();

  options.path = dir.file("s2.pages");
  auto index = SubsequenceIndex::Build(options, series).value();
  EXPECT_EQ(index->num_windows(), 20u - 16 + 1);
  std::vector<SubsequenceMatch> out;
  auto fetch = [](SeriesId) -> Result<RealVec> { return RealVec(); };
  EXPECT_TRUE(index->RangeSearch(RealVec(8, 1.0), 1.0, fetch, &out, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(index->RangeSearch(RealVec(16, 1.0), -1.0, fetch, &out, nullptr)
                  .IsInvalidArgument());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(index->RangeSearch(RealVec(16, 1.0), nan, fetch, &out, nullptr)
                  .IsInvalidArgument());
  RealVec nan_query(16, 1.0);
  nan_query[3] = nan;
  EXPECT_TRUE(index->RangeSearch(nan_query, 1.0, fetch, &out, nullptr)
                  .IsInvalidArgument());
}

TEST(SubsequenceIndexTest, EmptyInputBuildsAnEmptyIndex) {
  TempDir dir;
  SubsequenceIndexOptions options;
  options.window = 16;
  options.path = dir.file("s.pages");
  auto index = SubsequenceIndex::Build(options, {}).value();
  EXPECT_EQ(index->num_pieces(), 0u);
  EXPECT_EQ(index->num_windows(), 0u);
  std::vector<SubsequenceMatch> out;
  auto fetch = [](SeriesId) -> Result<RealVec> { return RealVec(); };
  ASSERT_TRUE(
      index->RangeSearch(RealVec(16, 1.0), 1.0, fetch, &out, nullptr).ok());
  EXPECT_TRUE(out.empty());
}

TEST(SubsequenceIndexTest, ShortSeriesSkippedByScanBaseline) {
  std::vector<TimeSeries> series;
  series.emplace_back(RealVec(10, 1.0), "short");
  series.emplace_back(RealVec(40, 1.0), "flat");
  std::vector<SubsequenceMatch> out;
  ASSERT_TRUE(
      ScanSubsequences(series, 32, RealVec(32, 1.0), 0.5, &out).ok());
  // Only the length-40 series contributes windows; all are exact matches.
  EXPECT_EQ(out.size(), 40u - 32 + 1);
  for (const auto& m : out) EXPECT_EQ(m.id, 1u);
}

}  // namespace
}  // namespace tsq
