// Copyright (c) 2026 The tsq Authors.
//
// Edge-case and robustness tests across the stack: degenerate series
// (flat, identical, tiny), extreme configurations (capacity-1 buffer pool,
// minimal page size), zero-threshold queries, and empty-answer paths —
// the corners a downstream user hits first.

#include <cmath>

#include "core/database.h"
#include "gtest/gtest.h"
#include "series/normal_form.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::Knn;
using testing::Range;
using testing::Scan;
using testing::TempDir;

// ---------------------------------------------------------------------------
// Degenerate series through the whole stack
// ---------------------------------------------------------------------------

TEST(EdgeCaseTest, FlatSeriesAreIndexableAndFindEachOther) {
  // A flat series has std 0; its normal form is all-zero by convention, so
  // every flat series is "similar" to every other flat series — the index
  // must handle the all-zero feature point (polar magnitude 0, angle 0).
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "flat";
  auto db = Database::Create(options).value();
  ASSERT_TRUE(db->Insert("flat5", RealVec(32, 5.0)).ok());
  ASSERT_TRUE(db->Insert("flat9", RealVec(32, 9.0)).ok());
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db->Insert("walk", workload::RandomWalkSeries(&rng, 32, {})).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  auto matches = Range(db.get(), RealVec(32, 7.0), 1e-9);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  // Both flat series match at distance 0 (identical normal forms).
  ASSERT_EQ(matches->size(), 2u);
  EXPECT_NEAR((*matches)[0].distance, 0.0, 1e-12);
  EXPECT_NEAR((*matches)[1].distance, 0.0, 1e-12);
}

TEST(EdgeCaseTest, IdenticalSeriesAllRetrieved) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "dups";
  auto db = Database::Create(options).value();
  Rng rng(2);
  const RealVec proto = workload::RandomWalkSeries(&rng, 64, {});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->Insert("dup" + std::to_string(i), proto).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  auto matches = Range(db.get(), proto, 0.0);  // zero threshold
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 50u);
  auto knn = Knn(db.get(), proto, 50);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 50u);
  for (const Match& m : *knn) EXPECT_NEAR(m.distance, 0.0, 1e-12);
}

TEST(EdgeCaseTest, TinySeriesLengthTwo) {
  // The smallest length the paper layout supports needs coefficients up to
  // X_2, so length-2 series need a smaller layout.
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "tiny";
  options.layout.num_coefficients = 1;  // X_1 only
  auto db = Database::Create(options).value();
  ASSERT_TRUE(db->Insert("a", {1.0, 2.0}).ok());
  ASSERT_TRUE(db->Insert("b", {5.0, 3.0}).ok());
  ASSERT_TRUE(db->BuildIndex().ok());
  auto matches = Range(db.get(), {2.0, 4.0}, 0.1);
  ASSERT_TRUE(matches.ok());
  // Normal form of (2,4) == normal form of (1,2) == (-1, 1).
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].name, "a");
}

TEST(EdgeCaseTest, SingleSeriesDatabase) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "single";
  auto db = Database::Create(options).value();
  Rng rng(3);
  const RealVec only = workload::RandomWalkSeries(&rng, 64, {});
  ASSERT_TRUE(db->Insert("only", only).ok());
  ASSERT_TRUE(db->BuildIndex().ok());
  EXPECT_EQ(Range(db.get(), only, 1.0).value().size(), 1u);
  EXPECT_EQ(Knn(db.get(), only, 5).value().size(), 1u);
  auto join = db->SelfJoin(1.0, JoinMethod::kTreeMatch, std::nullopt);
  ASSERT_TRUE(join.ok());
  EXPECT_TRUE(join->empty());
}

TEST(EdgeCaseTest, EmptyAnswerSetsEverywhere) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "empty";
  auto db = Database::Create(options).value();
  auto data = workload::MakeRandomWalkDataset(4, 50, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  // A query far outside the data's normal-form cloud: shift the phase by
  // querying a pure high-frequency signal.
  RealVec weird(64);
  for (size_t i = 0; i < 64; ++i) weird[i] = (i % 2 == 0) ? 100.0 : -100.0;
  auto matches = Range(db.get(), weird, 1e-6);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
  auto scan = Scan(db.get(), weird, 1e-6);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->empty());
}

// ---------------------------------------------------------------------------
// Extreme storage configurations
// ---------------------------------------------------------------------------

TEST(EdgeCaseTest, BufferPoolCapacityOne) {
  TempDir dir;
  auto file = PageFile::Create(dir.file("tiny.pages")).value();
  BufferPool pool(file.get(), 1);
  const testing::IndexDelta counted;
  // Sequential single-pin workload works with one frame.
  PageId first = 0;
  {
    auto h = pool.New().value();
    first = h.id();
    h.page()->WriteU64(0, 11);
    h.MarkDirty();
  }
  PageId second = 0;
  {
    auto h = pool.New().value();
    second = h.id();
    h.page()->WriteU64(0, 22);
    h.MarkDirty();
  }
  EXPECT_EQ(pool.Fetch(first).value().page()->ReadU64(0), 11u);
  EXPECT_EQ(pool.Fetch(second).value().page()->ReadU64(0), 22u);
  EXPECT_GE(counted().evictions, 2u);
}

TEST(EdgeCaseTest, MinimumPageSizeTree) {
  // 512-byte pages with 2 dims: capacity (512-16)/40 = 12 entries.
  TempDir dir;
  auto file = PageFile::Create(dir.file("small.pages"), 512).value();
  BufferPool pool(file.get(), 32);
  Rng rng(5);
  std::vector<spatial::Point> points;
  for (uint64_t i = 0; i < 200; ++i) {
    points.push_back(testing::RandomPoint(&rng, 2, 0.0, 10.0));
  }
  auto tree = testing::BulkLoadTree(&pool, 2, points, /*max_entries=*/0);
  EXPECT_EQ(tree->node_capacity(), 12u);
  EXPECT_GE(tree->height(), 3u);
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;
}

TEST(EdgeCaseTest, HighDimensionalTreeRejectedOnSmallPages) {
  // 512-byte pages cannot host a 16-dim tree (capacity < 4).
  TempDir dir;
  auto file = PageFile::Create(dir.file("hd.pages"), 512).value();
  BufferPool pool(file.get(), 8);
  EXPECT_TRUE(
      rtree::RStarTree::Create(&pool, 16, {}).status().IsInvalidArgument());
}

TEST(EdgeCaseTest, LongNamesAndLongSeriesRoundTrip) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("big.rel")).value();
  const std::string long_name(1000, 'x');
  Rng rng(6);
  RealVec values = testing::RandomRealVec(&rng, 4096);
  ComplexVec spectrum = testing::RandomComplexVec(&rng, 4096);
  auto id = rel->Append(long_name, values, spectrum);
  ASSERT_TRUE(id.ok());
  auto rec = rel->Get(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->name, long_name);
  EXPECT_EQ(rec->values, values);
  EXPECT_EQ(rec->dft, spectrum);
}

// ---------------------------------------------------------------------------
// Query-spec corners
// ---------------------------------------------------------------------------

TEST(EdgeCaseTest, ZeroEpsilonTransformedQuery) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "zeroeps";
  auto db = Database::Create(options).value();
  auto data = workload::MakeRandomWalkDataset(7, 60, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(64, 8));
  auto rec = db->Get(10).value();
  auto matches = Range(db.get(), rec.values, 0.0, spec);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());  // itself, at distance exactly 0
  EXPECT_EQ((*matches)[0].id, 10u);
}

TEST(EdgeCaseTest, DegenerateMeanStdWindowActsAsPointPredicate) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "window";
  auto db = Database::Create(options).value();
  auto data = workload::MakeRandomWalkDataset(8, 60, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  auto rec = db->Get(5).value();
  NormalForm nf = ToNormalForm(rec.values);
  QuerySpec spec;
  // Zero-width window exactly at series 5's (mean, std).
  spec.window = MeanStdWindow{nf.mean, nf.mean, nf.std, nf.std};
  auto matches = Range(db.get(), rec.values, 100.0, spec);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].id, 5u);
}

}  // namespace
}  // namespace tsq
