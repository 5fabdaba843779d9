// Copyright (c) 2026 The tsq Authors.
//
// End-to-end tests of the query engine through the Database facade:
// index-vs-scan parity (the no-false-dismissal guarantee of Lemma 1, as an
// executable property), transformed queries (moving average, reverse,
// shift/scale), both transform modes, kNN, mean/std windows, and the four
// self-join methods of Table 1.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "core/database.h"
#include "gtest/gtest.h"
#include "series/moving_average.h"
#include "series/normal_form.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

using testing::IndexDelta;
using testing::Knn;
using testing::Range;
using testing::Scan;
using testing::TempDir;

std::set<SeriesId> Ids(const std::vector<Match>& ms) {
  std::set<SeriesId> out;
  for (const Match& m : ms) out.insert(m.id);
  return out;
}

std::set<std::pair<SeriesId, SeriesId>> UnorderedPairs(
    const std::vector<JoinPair>& ps) {
  std::set<std::pair<SeriesId, SeriesId>> out;
  for (const JoinPair& p : ps) {
    out.insert({std::min(p.first, p.second), std::max(p.first, p.second)});
  }
  return out;
}

class DatabaseQueryTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeDb(size_t count, size_t length,
                                   FeatureLayout layout = FeatureLayout::Paper(),
                                   uint64_t seed = 42) {
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "db" + std::to_string(db_counter_++);
    options.layout = layout;
    auto db = Database::Create(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto data = workload::MakeRandomWalkDataset(seed, count, length);
    for (const TimeSeries& s : data) {
      auto id = (*db)->Insert(s.name(), s.values());
      EXPECT_TRUE(id.ok()) << id.status().ToString();
    }
    EXPECT_TRUE((*db)->BuildIndex().ok());
    return std::move(*db);
  }

  TempDir dir_;
  int db_counter_ = 0;
};

// ---------------------------------------------------------------------------
// Facade basics
// ---------------------------------------------------------------------------

TEST_F(DatabaseQueryTest, InsertValidatesLengths) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "basic";
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->Insert("empty", {}).status().IsInvalidArgument());
  ASSERT_TRUE((*db)->Insert("a", RealVec(16, 1.0)).ok());
  EXPECT_TRUE((*db)->Insert("b", RealVec(8, 1.0)).status().IsInvalidArgument());
  EXPECT_EQ((*db)->size(), 1u);
  EXPECT_EQ((*db)->series_length(), 16u);
}

TEST_F(DatabaseQueryTest, QueriesRequireIndex) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "noidx";
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Insert("a", RealVec(16, 1.0)).ok());
  EXPECT_TRUE(
      Range(db->get(), RealVec(16, 1.0), 1.0).status().IsFailedPrecondition());
  EXPECT_TRUE(
      Knn(db->get(), RealVec(16, 1.0), 3).status().IsFailedPrecondition());
  // Scans work without an index.
  EXPECT_TRUE(Scan(db->get(), RealVec(16, 1.0), 1.0).ok());
}

TEST_F(DatabaseQueryTest, BuildIndexTwiceFails) {
  auto db = MakeDb(20, 32);
  EXPECT_TRUE(db->BuildIndex().IsFailedPrecondition());
}

TEST_F(DatabaseQueryTest, InsertAfterBuildIndexIsIndexed) {
  auto db = MakeDb(50, 32);
  workload::RandomWalkOptions rw;
  Rng rng(777);
  const RealVec probe = workload::RandomWalkSeries(&rng, 32, rw);
  ASSERT_TRUE(db->Insert("late", probe).ok());
  // The new series must be findable: query for itself with tiny epsilon.
  auto matches = Range(db.get(), probe, 1e-6);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].name, "late");
}

// ---------------------------------------------------------------------------
// Range queries: index == scan (Lemma 1 end to end)
// ---------------------------------------------------------------------------

class RangeParityTest : public DatabaseQueryTest,
                        public ::testing::WithParamInterface<double> {};

TEST_P(RangeParityTest, IdentityQueryParity) {
  const double eps = GetParam();
  auto db = MakeDb(200, 64);
  Rng rng(7);
  for (int q = 0; q < 5; ++q) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    auto via_scan = Scan(db.get(), query, eps);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan)) << "eps=" << eps;
    // Distances agree too.
    for (size_t i = 0; i < via_index->size(); ++i) {
      EXPECT_NEAR((*via_index)[i].distance, (*via_scan)[i].distance, 1e-9);
    }
  }
}

TEST_P(RangeParityTest, MovingAverageQueryParity) {
  const double eps = GetParam();
  auto db = MakeDb(200, 64);
  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(64, 8));
  Rng rng(8);
  for (int q = 0; q < 5; ++q) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps, spec);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    auto via_scan = Scan(db.get(), query, eps, spec);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan)) << "eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, RangeParityTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0, 10.0));

TEST_F(DatabaseQueryTest, DataOnlyModeParity) {
  auto db = MakeDb(150, 64);
  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::MovingAverage(64, 4));
  spec.mode = TransformMode::kDataOnly;
  Rng rng(9);
  for (double eps : {0.5, 2.0, 8.0}) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps, spec);
    ASSERT_TRUE(via_index.ok());
    auto via_scan = Scan(db.get(), query, eps, spec);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan));
  }
}

TEST_F(DatabaseQueryTest, ReverseFindsOppositeMovers) {
  // Ex. 2.2 as a query: joining a series against the Trev-transformed
  // database must surface its planted opposite partner.
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "opposite";
  auto db = Database::Create(options);
  ASSERT_TRUE(db.ok());
  workload::StockMarketOptions market;
  market.num_series = 120;
  market.similar_pairs = 0;
  market.opposite_pairs = 5;
  market.opposite_noise = 0.001;
  auto series = workload::MakeStockMarket(99, market);
  for (const TimeSeries& s : series) {
    ASSERT_TRUE((*db)->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE((*db)->BuildIndex().ok());

  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::Reverse(128));
  spec.mode = TransformMode::kDataOnly;  // reverse the data, not the query
  // Query with OPPa0000 (index 0); its partner OPPb0000 (id 1) reversed
  // should be very close to it in normal form.
  auto matches = Range(db->get(), series[0].values(), 3.0, spec);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_TRUE(Ids(*matches).contains(1)) << "partner not found";
  // Parity with the scan under the same spec.
  auto scan = Scan(db->get(), series[0].values(), 3.0, spec);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(Ids(*matches), Ids(*scan));
}

TEST_F(DatabaseQueryTest, MeanStdWindowFiltersAnswers) {
  auto db = MakeDb(300, 64);
  Rng rng(10);
  const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
  QuerySpec all;
  auto unfiltered = Range(db.get(), query, 6.0, all);
  ASSERT_TRUE(unfiltered.ok());

  QuerySpec windowed;
  windowed.window = MeanStdWindow{40.0, 70.0, 0.0, 1e9};
  auto filtered = Range(db.get(), query, 6.0, windowed);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LE(filtered->size(), unfiltered->size());
  // Every filtered answer's mean is inside the window; every unfiltered
  // answer with an in-window mean survived.
  for (const Match& m : *filtered) {
    auto rec = db->Get(m.id);
    ASSERT_TRUE(rec.ok());
    NormalForm nf = ToNormalForm(rec->values);
    EXPECT_GE(nf.mean, 40.0);
    EXPECT_LE(nf.mean, 70.0);
  }
  std::set<SeriesId> expected;
  for (const Match& m : *unfiltered) {
    auto rec = db->Get(m.id);
    ASSERT_TRUE(rec.ok());
    NormalForm nf = ToNormalForm(rec->values);
    if (nf.mean >= 40.0 && nf.mean <= 70.0) expected.insert(m.id);
  }
  EXPECT_EQ(Ids(*filtered), expected);
}

TEST_F(DatabaseQueryTest, GoldinKanellakisShiftScaleQuery) {
  // [GK95]-style: find series that, after v -> 2v + 10, land near the
  // query in raw terms. Normal forms are unchanged; the mean/std index
  // dims move through the transformed index.
  auto db = MakeDb(100, 32);
  auto rec = db->Get(17);
  ASSERT_TRUE(rec.ok());
  RealVec shifted(32);
  for (size_t i = 0; i < 32; ++i) shifted[i] = 2.0 * rec->values[i] + 10.0;
  NormalForm nfq = ToNormalForm(shifted);

  QuerySpec spec;
  spec.transform = FeatureTransform::ShiftScale(32, 10.0, 2.0);
  spec.mode = TransformMode::kDataOnly;
  // Window around the transformed mean/std of the target.
  spec.window = MeanStdWindow{nfq.mean - 0.5, nfq.mean + 0.5, nfq.std - 0.5,
                              nfq.std + 0.5};
  auto matches = Range(db.get(), shifted, 0.01, spec);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  EXPECT_TRUE(Ids(*matches).contains(17));
}

// ---------------------------------------------------------------------------
// Rectangular-space database
// ---------------------------------------------------------------------------

TEST_F(DatabaseQueryTest, RectangularLayoutParity) {
  FeatureLayout layout = FeatureLayout::Agrawal(4);
  auto db = MakeDb(150, 64, layout);
  Rng rng(11);
  for (double eps : {1.0, 5.0, 20.0}) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps);
    ASSERT_TRUE(via_index.ok());
    auto via_scan = Scan(db.get(), query, eps);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan));
  }
}

TEST_F(DatabaseQueryTest, RectangularShiftTransformParity) {
  // Shift is Srect-safe; querying through the shifted index must match the
  // shifted scan.
  FeatureLayout layout = FeatureLayout::Agrawal(4);
  auto db = MakeDb(150, 64, layout);
  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::Shift(64, 3.0));
  Rng rng(12);
  for (double eps : {1.0, 10.0}) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto via_index = Range(db.get(), query, eps, spec);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    auto via_scan = Scan(db.get(), query, eps, spec);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Ids(*via_index), Ids(*via_scan));
  }
}

// ---------------------------------------------------------------------------
// kNN
// ---------------------------------------------------------------------------

class KnnTest : public DatabaseQueryTest,
                public ::testing::WithParamInterface<size_t> {};

TEST_P(KnnTest, MatchesScanTopK) {
  const size_t k = GetParam();
  auto db = MakeDb(250, 64);
  Rng rng(13);
  for (int q = 0; q < 4; ++q) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    auto knn = Knn(db.get(), query, k);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ASSERT_EQ(knn->size(), std::min<size_t>(k, 250));

    // Brute force through the scan with a huge threshold.
    auto scan = Scan(db.get(), query, 1e9);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan->size(), 250u);
    for (size_t i = 0; i < knn->size(); ++i) {
      EXPECT_NEAR((*knn)[i].distance, (*scan)[i].distance, 1e-9)
          << "rank " << i << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnTest, ::testing::Values(1, 3, 10, 50));

TEST_F(DatabaseQueryTest, KnnWithTransformMatchesScan) {
  auto db = MakeDb(200, 64);
  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(64, 8));
  Rng rng(14);
  const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
  auto knn = Knn(db.get(), query, 10, spec);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  ASSERT_EQ(knn->size(), 10u);
  auto scan = Scan(db.get(), query, 1e9, spec);
  ASSERT_TRUE(scan.ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR((*knn)[i].distance, (*scan)[i].distance, 1e-9) << "rank " << i;
  }
}

TEST_F(DatabaseQueryTest, KnnSelfQueryFindsSelfFirst) {
  auto db = MakeDb(100, 32);
  auto rec = db->Get(42);
  ASSERT_TRUE(rec.ok());
  auto knn = Knn(db.get(), rec->values, 1);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 1u);
  EXPECT_EQ((*knn)[0].id, 42u);
  EXPECT_NEAR((*knn)[0].distance, 0.0, 1e-9);
}

TEST_F(DatabaseQueryTest, KnnOfAStoredSeriesReadsOnlyTheNodesHoldingIt) {
  // A stored series' own point sits at distance 0, so once it is verified
  // the stop rule rules out every node whose bound is above 0 before
  // reading it: the search reads exactly the nodes whose MBR holds the
  // point in the spectral dims, the nodes a range search with the point's
  // rect (mean/std unbounded) reads.
  auto db = MakeDb(3000, 64);
  const KIndex* index = db->index();
  ASSERT_GE(index->tree()->height(), 3u);
  const FeatureExtractor& extractor = index->extractor();
  constexpr double kBig = std::numeric_limits<double>::max();
  for (SeriesId id = 0; id < 3000; id += 23) {
    auto rec = db->Get(id);
    ASSERT_TRUE(rec.ok());
    QueryStats stats;
    auto knn = Knn(db.get(), rec->values, 1, {}, {}, &stats);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ASSERT_EQ(knn->size(), 1u);
    EXPECT_EQ((*knn)[0].id, id);
    EXPECT_EQ((*knn)[0].distance, 0.0);

    spatial::Rect holding = spatial::Rect::FromPoint(
        extractor.ToPoint(extractor.FromStored(rec->values, rec->dft)));
    for (size_t d = 0; d < index->layout().spectral_offset(); ++d) {
      holding.SetDim(d, -kBig, kBig);
    }
    const IndexDelta searched;
    ASSERT_TRUE(index->tree()
                    ->Search(holding, [](uint64_t, const spatial::Rect&) {
                      return true;
                    })
                    .ok());
    EXPECT_EQ(stats.nodes_visited, searched().nodes_visited) << "id " << id;
  }
}

TEST_F(DatabaseQueryTest, KnnZeroAndOversizedK) {
  auto db = MakeDb(20, 32);
  Rng rng(15);
  const RealVec query = workload::RandomWalkSeries(&rng, 32, {});
  auto zero = Knn(db.get(), query, 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
  auto all = Knn(db.get(), query, 1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 20u);
}

// ---------------------------------------------------------------------------
// Self-join (Table 1 methods)
// ---------------------------------------------------------------------------

TEST_F(DatabaseQueryTest, JoinMethodsAgree) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "join";
  auto dbr = Database::Create(options);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(*dbr);
  workload::StockMarketOptions market;
  market.num_series = 150;
  market.similar_pairs = 6;
  market.opposite_pairs = 0;
  auto series = workload::MakeStockMarket(1234, market);
  for (const TimeSeries& s : series) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  const double eps = 2.0;
  auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));

  auto a = db->SelfJoin(eps, JoinMethod::kScanFull, transform);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = db->SelfJoin(eps, JoinMethod::kScanEarlyAbandon, transform);
  ASSERT_TRUE(b.ok());
  auto d = db->SelfJoin(eps, JoinMethod::kIndexTransformed, transform);
  ASSERT_TRUE(d.ok());

  // a == b exactly (same unordered pairs).
  EXPECT_EQ(UnorderedPairs(*a), UnorderedPairs(*b));
  // d finds the same unordered pairs, each counted twice (Table 1:
  // "the answer set of d contains every pair twice").
  EXPECT_EQ(UnorderedPairs(*d), UnorderedPairs(*a));
  EXPECT_EQ(d->size(), 2 * a->size());
  // Planted similar pairs are found.
  EXPECT_GE(a->size(), market.similar_pairs);

  // Method c (no transformation) answers a different question: pairs close
  // without smoothing — a subset in practice on this workload.
  auto c = db->SelfJoin(eps, JoinMethod::kIndexPlain, transform);
  ASSERT_TRUE(c.ok());
  auto c_pairs = UnorderedPairs(*c);
  auto a_pairs = UnorderedPairs(*a);
  EXPECT_LE(c_pairs.size(), a_pairs.size());
}

TEST_F(DatabaseQueryTest, JoinStatsArePopulated) {
  auto db = MakeDb(80, 32);
  auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(32, 4));
  QueryStats stats;
  auto d = db->SelfJoin(1.0, JoinMethod::kIndexTransformed, transform, &stats);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(stats.records_scanned, 80u);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.rect_transforms, 0u);
  EXPECT_GE(stats.elapsed_ms, 0.0);
}

TEST_F(DatabaseQueryTest, RangeStatsArePopulated) {
  auto db = MakeDb(100, 32);
  Rng rng(16);
  const RealVec query = workload::RandomWalkSeries(&rng, 32, {});
  QueryStats stats;
  auto matches = Range(db.get(), query, 5.0, {}, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GE(stats.candidates, matches->size());
  EXPECT_EQ(stats.answers, matches->size());
}

// ---------------------------------------------------------------------------
// Refine: the early abandon keeps every accept test
// ---------------------------------------------------------------------------

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// A query spec and the layout that admits it: Shift is safe only in the
/// rectangular space (Theorem 2), the others in the paper's polar one.
struct RefineCase {
  std::string name;
  QuerySpec spec;
  FeatureLayout layout;
};

std::vector<RefineCase> RefineCases(size_t n) {
  auto spectral = [](LinearTransform t) {
    QuerySpec spec;
    spec.transform = FeatureTransform::Spectral(std::move(t));
    return spec;
  };
  const FeatureLayout polar = FeatureLayout::Paper();
  return {
      {"none", QuerySpec{}, polar},
      {"moving_average", spectral(transforms::MovingAverage(n, 8)), polar},
      {"difference", spectral(transforms::Difference(n)), polar},
      {"reverse", spectral(transforms::Reverse(n)), polar},
      {"scale", spectral(transforms::Scale(n, -1.5)), polar},
      {"time_warp", spectral(transforms::TimeWarp(n, 2, n)), polar},
      {"shift", spectral(transforms::Shift(n, 3.0)), FeatureLayout::Agrawal(4)},
  };
}

/// The join's target for query series `a`: T(X_a), or X_a untransformed.
ComplexVec JoinTarget(const SeriesRecord& a,
                      const std::optional<FeatureTransform>& transform) {
  return transform.has_value() ? transform->spectral.Apply(a.dft) : a.dft;
}

TEST_F(DatabaseQueryTest, RefineAnswersAndDistancesEqualVerifyDistance) {
  // Length 60: 120 doubles per distance, so the kernel's early-abandon
  // checkpoints end before a non-empty tail.
  constexpr size_t kCount = 150;
  constexpr size_t kLength = 60;
  for (const RefineCase& c : RefineCases(kLength)) {
    SCOPED_TRACE(c.name);
    auto db = MakeDb(kCount, kLength, c.layout, 91);
    std::vector<SeriesRecord> records;
    for (SeriesId id = 0; id < kCount; ++id) {
      records.push_back(db->Get(id).value());
    }
    Rng rng(92);
    std::vector<RealVec> queries = {records[3].values, records[77].values};
    queries.push_back(workload::RandomWalkSeries(&rng, kLength, {}));

    for (const RealVec& query : queries) {
      const PreparedQuery prepared =
          PrepareQuery(*db->index(), query, c.spec).value();
      // Reference: VerifyDistance of every stored series, ranked.
      std::vector<std::pair<double, SeriesId>> ranked;
      for (const SeriesRecord& r : records) {
        ranked.emplace_back(VerifyDistance(r.dft, c.spec.transform,
                                           prepared.full_spectrum),
                            r.id);
      }
      std::sort(ranked.begin(), ranked.end());

      // Range at a stored distance: the candidate at exactly d = epsilon
      // is an answer, with the reference's distance bits.
      const double eps = ranked[9].first;
      auto range = Range(db.get(), query, eps, c.spec);
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      std::vector<std::pair<double, SeriesId>> want;
      for (const auto& [d, id] : ranked) {
        if (d <= eps) want.emplace_back(d, id);
      }
      ASSERT_EQ(range->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*range)[i].id, want[i].second);
        EXPECT_EQ(Bits((*range)[i].distance), Bits(want[i].first));
        EXPECT_EQ((*range)[i].name, records[want[i].second].name);
      }

      // kNN: the reference's top k, distance bits included.
      for (const size_t k : {size_t{1}, size_t{5}}) {
        auto knn = Knn(db.get(), query, k, c.spec);
        ASSERT_TRUE(knn.ok()) << knn.status().ToString();
        ASSERT_EQ(knn->size(), k);
        for (size_t i = 0; i < k; ++i) {
          EXPECT_EQ((*knn)[i].id, ranked[i].second) << "k=" << k;
          EXPECT_EQ(Bits((*knn)[i].distance), Bits(ranked[i].first))
              << "k=" << k;
        }
      }
    }

    // Joins c (transform ignored) and d: every ordered pair within a
    // stored pair distance, with the reference's distance bits.
    for (const JoinMethod method :
         {JoinMethod::kIndexPlain, JoinMethod::kIndexTransformed}) {
      const std::optional<FeatureTransform> transform =
          method == JoinMethod::kIndexPlain ? std::nullopt
                                            : c.spec.transform;
      std::map<std::pair<SeriesId, SeriesId>, double> all;
      std::vector<double> distances;
      for (const SeriesRecord& a : records) {
        const ComplexVec target = JoinTarget(a, transform);
        for (const SeriesRecord& b : records) {
          if (a.id == b.id) continue;
          const double d = VerifyDistance(b.dft, transform, target);
          all[{a.id, b.id}] = d;
          distances.push_back(d);
        }
      }
      std::sort(distances.begin(), distances.end());
      const double eps = distances[40];
      auto pairs = db->SelfJoin(eps, method, c.spec.transform);
      ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
      size_t expected = 0;
      for (const auto& [pair, d] : all) expected += d <= eps ? 1 : 0;
      EXPECT_EQ(pairs->size(), expected);
      for (const JoinPair& p : *pairs) {
        const auto it = all.find({p.first, p.second});
        ASSERT_NE(it, all.end());
        EXPECT_LE(it->second, eps);
        EXPECT_EQ(Bits(p.distance), Bits(it->second));
      }
    }
  }
}

TEST_F(DatabaseQueryTest, BoundaryCandidateStaysAnAnswer) {
  // epsilon = VerifyDistance of a stored pair, plain and through Tmavg20:
  // the pair is an answer of the range query and of the joins.
  constexpr size_t kLength = 128;
  auto db = MakeDb(120, kLength);
  QuerySpec mavg;
  mavg.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 20));
  const SeriesRecord a = db->Get(5).value();
  const SeriesRecord b = db->Get(64).value();
  for (const QuerySpec& spec : {QuerySpec{}, mavg}) {
    const PreparedQuery prepared =
        PrepareQuery(*db->index(), a.values, spec).value();
    const double eps =
        VerifyDistance(b.dft, spec.transform, prepared.full_spectrum);
    auto range = Range(db.get(), a.values, eps, spec);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    bool found = false;
    for (const Match& m : *range) {
      if (m.id != b.id) continue;
      found = true;
      EXPECT_EQ(Bits(m.distance), Bits(eps));
    }
    EXPECT_TRUE(found) << "transform " << spec.transform.has_value();

    const double join_eps = VerifyDistance(
        b.dft, spec.transform, JoinTarget(a, spec.transform));
    const JoinMethod method = spec.transform.has_value()
                                  ? JoinMethod::kIndexTransformed
                                  : JoinMethod::kIndexPlain;
    auto pairs = db->SelfJoin(join_eps, method, spec.transform);
    ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
    bool paired = false;
    for (const JoinPair& p : *pairs) {
      if (p.first != a.id || p.second != b.id) continue;
      paired = true;
      EXPECT_EQ(Bits(p.distance), Bits(join_eps));
    }
    EXPECT_TRUE(paired) << "transform " << spec.transform.has_value();
  }
}

TEST_F(DatabaseQueryTest, ApproximateKnnKeepsAnswersAndMaxError) {
  constexpr size_t kLength = 64;
  auto db = MakeDb(300, kLength);
  QuerySpec mavg;
  mavg.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 8));
  Rng rng(93);
  for (const QuerySpec& spec : {QuerySpec{}, mavg}) {
    for (int q = 0; q < 4; ++q) {
      const RealVec query = workload::RandomWalkSeries(&rng, kLength, {});
      const PreparedQuery prepared =
          PrepareQuery(*db->index(), query, spec).value();
      std::vector<double> exact;
      for (SeriesId id = 0; id < 300; ++id) {
        exact.push_back(VerifyDistance(db->Get(id).value().dft,
                                       spec.transform,
                                       prepared.full_spectrum));
      }
      std::sort(exact.begin(), exact.end());
      for (const double tolerance : {0.0, 0.25, 1.0}) {
        KnnOptions options;
        options.epsilon = tolerance;
        QueryStats stats;
        auto knn = Knn(db.get(), query, 5, spec, options, &stats);
        ASSERT_TRUE(knn.ok()) << knn.status().ToString();
        ASSERT_EQ(knn->size(), 5u);
        EXPECT_LE(stats.max_error, tolerance);
        for (size_t i = 0; i < 5; ++i) {
          const Match& m = (*knn)[i];
          // Every reported distance is its series' exact distance, and
          // within (1 + max_error) of the true distance at its rank.
          EXPECT_EQ(Bits(m.distance),
                    Bits(VerifyDistance(db->Get(m.id).value().dft,
                                        spec.transform,
                                        prepared.full_spectrum)));
          EXPECT_LE(m.distance,
                    exact[i] * (1.0 + stats.max_error) * (1.0 + 1e-12));
          if (tolerance == 0.0) {
            EXPECT_EQ(Bits(m.distance), Bits(exact[i]));
          }
        }
      }
    }
  }
}

TEST_F(DatabaseQueryTest, InvalidQueryArguments) {
  auto db = MakeDb(20, 32);
  EXPECT_TRUE(Range(db.get(), RealVec(16, 0.0), 1.0).status()
                  .IsInvalidArgument());  // wrong length
  EXPECT_TRUE(Range(db.get(), RealVec(32, 0.0), -1.0).status()
                  .IsInvalidArgument());  // negative eps
}

}  // namespace
}  // namespace tsq

namespace tsq {
namespace {

// ---------------------------------------------------------------------------
// Tree-match self-join (tsq extension)
// ---------------------------------------------------------------------------

class TreeMatchJoinTest : public ::testing::Test {
 protected:
  testing::TempDir dir_;
};

TEST_F(TreeMatchJoinTest, MatchesIndexNestedLoopJoin) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "tmj";
  auto dbr = Database::Create(options);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(*dbr);
  workload::StockMarketOptions market;
  market.num_series = 200;
  auto series = workload::MakeStockMarket(555, market);
  for (const TimeSeries& s : series) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  const auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
  for (double eps : {0.3, 0.6, 1.5}) {
    auto nested = db->SelfJoin(eps, JoinMethod::kIndexTransformed, transform);
    ASSERT_TRUE(nested.ok()) << nested.status().ToString();
    auto matched = db->SelfJoin(eps, JoinMethod::kTreeMatch, transform);
    ASSERT_TRUE(matched.ok()) << matched.status().ToString();
    EXPECT_EQ(UnorderedPairs(*nested), UnorderedPairs(*matched))
        << "eps=" << eps;
    EXPECT_EQ(nested->size(), matched->size()) << "eps=" << eps;
  }
}

TEST_F(TreeMatchJoinTest, PlainTreeMatchAgainstScan) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "tmj2";
  auto dbr = Database::Create(options);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(*dbr);
  auto data = workload::MakeRandomWalkDataset(77, 150, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  for (double eps : {1.0, 4.0}) {
    auto matched = db->SelfJoin(eps, JoinMethod::kTreeMatch, std::nullopt);
    ASSERT_TRUE(matched.ok());
    auto scan = db->SelfJoin(eps, JoinMethod::kScanEarlyAbandon, std::nullopt);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(UnorderedPairs(*matched), UnorderedPairs(*scan)) << "eps=" << eps;
  }
}

TEST_F(TreeMatchJoinTest, RectangularSpaceTreeMatch) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "tmj3";
  options.layout = FeatureLayout::Agrawal(3);
  auto dbr = Database::Create(options);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(*dbr);
  auto data = workload::MakeRandomWalkDataset(78, 120, 64);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  auto matched = db->SelfJoin(5.0, JoinMethod::kTreeMatch, std::nullopt);
  ASSERT_TRUE(matched.ok());
  auto scan = db->SelfJoin(5.0, JoinMethod::kScanEarlyAbandon, std::nullopt);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(UnorderedPairs(*matched), UnorderedPairs(*scan));
}

TEST_F(TreeMatchJoinTest, FewerNodeAccessesThanNestedLoop) {
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "tmj4";
  auto dbr = Database::Create(options);
  ASSERT_TRUE(dbr.ok());
  auto db = std::move(*dbr);
  workload::StockMarketOptions market;
  market.num_series = 400;
  auto series = workload::MakeStockMarket(556, market);
  for (const TimeSeries& s : series) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());

  const auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
  QueryStats nested;
  ASSERT_TRUE(
      db->SelfJoin(0.5, JoinMethod::kIndexTransformed, transform, &nested)
          .ok());
  QueryStats matched;
  ASSERT_TRUE(
      db->SelfJoin(0.5, JoinMethod::kTreeMatch, transform, &matched).ok());
  const uint64_t nested_nodes = nested.nodes_visited;
  const uint64_t matched_nodes = matched.nodes_visited;
  // One synchronized traversal touches far fewer nodes than N range queries.
  EXPECT_LT(matched_nodes, nested_nodes);
}

}  // namespace
}  // namespace tsq
