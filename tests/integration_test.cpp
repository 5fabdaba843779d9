// Copyright (c) 2026 The tsq Authors.
//
// Cross-module integration tests: the no-false-dismissal guarantee
// (Lemma 1) exercised end to end on a realistic data set with many
// transformations and thresholds; the Figure 8/9 premise (identity
// transform == plain search, identical disk accesses); candidate-set
// quality; and stability of the whole stack across index layouts.

#include <algorithm>
#include <cmath>
#include <set>

#include "core/database.h"
#include "gtest/gtest.h"
#include "series/distance.h"
#include "series/moving_average.h"
#include "series/normal_form.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

using testing::Range;
using testing::Scan;
using testing::TempDir;

std::set<SeriesId> Ids(const std::vector<Match>& ms) {
  std::set<SeriesId> out;
  for (const Match& m : ms) out.insert(m.id);
  return out;
}

class IntegrationTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeStockDb(size_t count, uint64_t seed,
                                        FeatureLayout layout =
                                            FeatureLayout::Paper()) {
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "db" + std::to_string(counter_++);
    options.layout = layout;
    auto db = Database::Create(options);
    EXPECT_TRUE(db.ok());
    workload::StockMarketOptions market;
    market.num_series = count;
    auto series = workload::MakeStockMarket(seed, market);
    for (const TimeSeries& s : series) {
      EXPECT_TRUE((*db)->Insert(s.name(), s.values()).ok());
    }
    EXPECT_TRUE((*db)->BuildIndex().ok());
    return std::move(*db);
  }

  TempDir dir_;
  int counter_ = 0;
};

// ---------------------------------------------------------------------------
// Lemma 1, end to end, across transformations and thresholds
// ---------------------------------------------------------------------------

struct LemmaCase {
  const char* name;
  double eps;
};

class Lemma1Test : public IntegrationTest,
                   public ::testing::WithParamInterface<double> {};

TEST_P(Lemma1Test, NoFalseDismissalsAcrossTransforms) {
  const double eps = GetParam();
  auto db = MakeStockDb(400, 20260610);
  const size_t n = 128;

  std::vector<std::pair<std::string, QuerySpec>> specs;
  specs.emplace_back("identity", QuerySpec{});
  QuerySpec ma;
  ma.transform = FeatureTransform::Spectral(transforms::MovingAverage(n, 20));
  specs.emplace_back("mavg20", ma);
  QuerySpec ma3;
  ma3.transform =
      FeatureTransform::Spectral(transforms::SuccessiveMovingAverage(n, 20, 3));
  specs.emplace_back("mavg20^3", ma3);
  QuerySpec rev;
  rev.transform = FeatureTransform::Spectral(transforms::Reverse(n));
  rev.mode = TransformMode::kDataOnly;
  specs.emplace_back("reverse", rev);
  QuerySpec wma;
  wma.transform = FeatureTransform::Spectral(
      transforms::WeightedMovingAverage(n, {0.4, 0.3, 0.2, 0.1}));
  specs.emplace_back("wmavg4", wma);

  Rng rng(5);
  for (const auto& [name, spec] : specs) {
    for (int q = 0; q < 3; ++q) {
      auto probe = db->Get(static_cast<SeriesId>(rng.UniformInt(0, 399)));
      ASSERT_TRUE(probe.ok());
      auto via_index = Range(db.get(), probe->values, eps, spec);
      ASSERT_TRUE(via_index.ok()) << name << ": "
                                  << via_index.status().ToString();
      auto via_scan = Scan(db.get(), probe->values, eps, spec);
      ASSERT_TRUE(via_scan.ok());
      EXPECT_EQ(Ids(*via_index), Ids(*via_scan))
          << "transform=" << name << " eps=" << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, Lemma1Test,
                         ::testing::Values(0.05, 0.5, 2.0, 8.0, 16.0));

// ---------------------------------------------------------------------------
// Figure 8/9 premise
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, IdentityTransformSameAnswersAndSameDiskAccesses) {
  auto db = MakeStockDb(500, 77);
  const size_t n = 128;
  QuerySpec identity_spec;
  identity_spec.transform =
      FeatureTransform::Spectral(transforms::Identity(n));

  Rng rng(6);
  for (int q = 0; q < 5; ++q) {
    auto probe = db->Get(static_cast<SeriesId>(rng.UniformInt(0, 499)));
    ASSERT_TRUE(probe.ok());

    QueryStats plain_stats;
    auto plain = Range(db.get(), probe->values, 4.0, {}, &plain_stats);
    ASSERT_TRUE(plain.ok());

    QueryStats transformed_stats;
    auto transformed = Range(db.get(), probe->values, 4.0, identity_spec,
                             &transformed_stats);
    ASSERT_TRUE(transformed.ok());

    // Same answers, same node accesses; the transformed path does strictly
    // more CPU work (rect transformations).
    EXPECT_EQ(Ids(*plain), Ids(*transformed));
    EXPECT_EQ(plain_stats.nodes_visited, transformed_stats.nodes_visited);
    EXPECT_EQ(plain_stats.rect_transforms, 0u);
    EXPECT_GT(transformed_stats.rect_transforms, 0u);
  }
}

// ---------------------------------------------------------------------------
// Candidate quality (the filter works)
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, IndexCandidatesAreFewComparedToRelation) {
  auto db = MakeStockDb(600, 99);
  Rng rng(7);
  uint64_t total_candidates = 0;
  uint64_t queries = 0;
  for (int q = 0; q < 10; ++q) {
    auto probe = db->Get(static_cast<SeriesId>(rng.UniformInt(0, 599)));
    ASSERT_TRUE(probe.ok());
    QueryStats stats;
    auto res = Range(db.get(), probe->values, 1.0, {}, &stats);
    ASSERT_TRUE(res.ok());
    total_candidates += stats.candidates;
    ++queries;
    // Answers never exceed candidates.
    EXPECT_LE(stats.answers, stats.candidates);
  }
  // Selective queries should touch far fewer records than the relation
  // size on average (the k-index filter property).
  EXPECT_LT(total_candidates / queries, 600u / 4);
}

TEST_F(IntegrationTest, EveryAnswerVerifiesAgainstTimeDomain) {
  // Matches' distances are frequency-domain; Parseval says the time-domain
  // distance between the transformed normal forms is identical.
  auto db = MakeStockDb(300, 111);
  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
  auto probe = db->Get(3);
  ASSERT_TRUE(probe.ok());
  auto res = Range(db.get(), probe->values, 3.0, spec);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->empty());

  const RealVec qnf = ToNormalForm(probe->values).normalized;
  const RealVec qsm = CircularMovingAverage(qnf, 20);
  for (const Match& m : *res) {
    auto rec = db->Get(m.id);
    ASSERT_TRUE(rec.ok());
    const RealVec rnf = ToNormalForm(rec->values).normalized;
    const RealVec rsm = CircularMovingAverage(rnf, 20);
    EXPECT_NEAR(EuclideanDistance(rsm, qsm), m.distance, 1e-6)
        << "id " << m.id;
  }
}

// ---------------------------------------------------------------------------
// Layout ablations hold up
// ---------------------------------------------------------------------------

class LayoutAblationTest : public IntegrationTest,
                           public ::testing::WithParamInterface<size_t> {};

TEST_P(LayoutAblationTest, MoreCoefficientsNeverHurtCorrectness) {
  const size_t k = GetParam();
  FeatureLayout layout = FeatureLayout::Paper();
  layout.num_coefficients = k;
  auto db = MakeStockDb(250, 131 + k, layout);
  Rng rng(8);
  for (double eps : {0.5, 4.0}) {
    auto probe = db->Get(static_cast<SeriesId>(rng.UniformInt(0, 249)));
    ASSERT_TRUE(probe.ok());
    auto via_index = Range(db.get(), probe->values, eps);
    ASSERT_TRUE(via_index.ok());
    auto via_scan = Scan(db.get(), probe->values, eps);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(CoefficientCounts, LayoutAblationTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST_F(IntegrationTest, MoreCoefficientsGiveFewerOrEqualCandidates) {
  // The classic k tradeoff: a longer prefix filters better.
  FeatureLayout small = FeatureLayout::Paper();
  small.num_coefficients = 1;
  FeatureLayout large = FeatureLayout::Paper();
  large.num_coefficients = 6;
  auto db_small = MakeStockDb(400, 171, small);
  auto db_large = MakeStockDb(400, 171, large);
  Rng rng(9);
  uint64_t cand_small = 0;
  uint64_t cand_large = 0;
  for (int q = 0; q < 8; ++q) {
    const SeriesId id = static_cast<SeriesId>(rng.UniformInt(0, 399));
    auto probe = db_small->Get(id);
    ASSERT_TRUE(probe.ok());
    QueryStats small_stats;
    QueryStats large_stats;
    ASSERT_TRUE(
        Range(db_small.get(), probe->values, 1.5, {}, &small_stats).ok());
    cand_small += small_stats.candidates;
    ASSERT_TRUE(
        Range(db_large.get(), probe->values, 1.5, {}, &large_stats).ok());
    cand_large += large_stats.candidates;
  }
  EXPECT_LE(cand_large, cand_small);
}

// ---------------------------------------------------------------------------
// Scale: a thousand series, deep tree, everything still exact
// ---------------------------------------------------------------------------

TEST_F(IntegrationTest, ThousandSeriesEndToEnd) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "big";
  auto dbr = Database::Create(options);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(*dbr);
  auto data = workload::MakeRandomWalkDataset(2026, 1000, 128);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  EXPECT_EQ(db->size(), 1000u);
  EXPECT_GE(db->index()->tree()->height(), 2u);

  auto check = db->index()->tree()->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;

  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
  Rng rng(10);
  for (int q = 0; q < 3; ++q) {
    const RealVec query = workload::RandomWalkSeries(&rng, 128, {});
    auto via_index = Range(db.get(), query, 4.0, spec);
    ASSERT_TRUE(via_index.ok());
    auto via_scan = Scan(db.get(), query, 4.0, spec);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan));
  }
}

}  // namespace
}  // namespace tsq

namespace tsq {
namespace {

// ---------------------------------------------------------------------------
// Persistence: Database::Open round trip
// ---------------------------------------------------------------------------

class PersistenceTest : public ::testing::Test {
 protected:
  testing::TempDir dir_;
};

TEST_F(PersistenceTest, ReopenServesIdenticalAnswers) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "persist";
  auto data = workload::MakeRandomWalkDataset(606, 300, 64);
  const RealVec query = data[13].values();

  std::vector<Match> before;
  {
    auto db = Database::Create(options).value();
    for (const TimeSeries& s : data) {
      ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
    }
    ASSERT_TRUE(db->BuildIndex().ok());
    before = Range(db.get(), query, 4.0).value();
    ASSERT_TRUE(db->Flush().ok());
  }

  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 300u);
  EXPECT_EQ((*reopened)->series_length(), 64u);
  ASSERT_TRUE((*reopened)->index_built());

  auto after = Range(reopened->get(), query, 4.0).value();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_NEAR(after[i].distance, before[i].distance, 1e-12);
  }

  // The reopened tree passes a structural audit.
  auto check = (*reopened)->index()->tree()->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;
}

TEST_F(PersistenceTest, ReopenWithoutIndex) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "noindex";
  {
    auto db = Database::Create(options).value();
    ASSERT_TRUE(db->Insert("only", RealVec(32, 5.0)).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->index_built());
  // Scans still work; index queries report the missing index.
  EXPECT_TRUE(Scan(reopened->get(), RealVec(32, 5.0), 1.0).ok());
  EXPECT_TRUE(Range(reopened->get(), RealVec(32, 5.0), 1.0)
                  .status()
                  .IsFailedPrecondition());
  // Inserts continue from the persisted state, then an index can be built.
  ASSERT_TRUE((*reopened)->Insert("more", RealVec(32, 6.0)).ok());
  ASSERT_TRUE((*reopened)->BuildIndex().ok());
  EXPECT_EQ(Range(reopened->get(), RealVec(32, 6.0), 0.1).value().size(), 2u);
}

TEST_F(PersistenceTest, OpenMissingDatabaseFails) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "nothere";
  EXPECT_TRUE(Database::Open(options).status().IsIOError());
}

TEST_F(PersistenceTest, OpenRebuildsRelationTailIntoDelta) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "mismatch";
  RealVec ramp(32);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = double(i);
  {
    auto db = Database::Create(options).value();
    ASSERT_TRUE(db->Insert("a", RealVec(32, 1.0)).ok());
    ASSERT_TRUE(db->BuildIndex().ok());
    // This lands in the in-memory delta: the on-disk tree still covers
    // one series after the flush, while the relation holds two.
    ASSERT_TRUE(db->Insert("tail", ramp).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  // v4 contract: a relation that ran ahead of the on-disk index is the
  // crash-before-merge shape, not corruption — Open rebuilds the tail
  // into the delta, and the delta answers queries immediately.
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 2u);
  EXPECT_EQ((*reopened)->index()->size(), 1u);
  EXPECT_EQ((*reopened)->StatsSnapshot().delta_entries, 1u);
  auto hit = Range(reopened->get(), ramp, 0.001);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].id, 1u);
  EXPECT_EQ((*hit)[0].distance, 0.0);
}

}  // namespace
}  // namespace tsq
