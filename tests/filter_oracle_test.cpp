// Copyright (c) 2026 The tsq Authors.
//
// Differential oracle for Algorithm 2's filters. Every indexed answer —
// range (tree and delta, plain, transformed, windowed), exact and
// epsilon-approximate kNN, and the index self-joins (methods c/d and the
// tree-match join) — is compared with a brute force over every record in
// view that applies the refine's own accept rule: VerifyDistance <= eps
// for ranges and joins, the top k by (squared distance, id) for kNN. The
// filters may change which candidates are fetched, never an answer, so
// ids and distance bits must match exactly.
//
// Inputs cover the paper's layout, the rectangular, Haar, Agrawal(2) and
// raw (normalize = false) layouts at n = 4, 7 and 128; every builtin
// transform under both modes and ShiftScale; thresholds at 0, at exact
// answer distances and up to the relation's diameter; a pair whose
// normal forms differ only in X_1 and X_{n-1} (its stored distance is
// D/sqrt(2) exactly in exact arithmetic, the edge of the conjugate-
// symmetry radius); and duplicates, which tie. Every database holds
// unmerged delta entries, and one test races ranges against InsertBatch.
//
// Seeds 1..2 run by default; TSQ_ORACLE_SEEDS=N runs seeds 1..N.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <set>
#include <sstream>
#include <thread>

#include "core/database.h"
#include "core/seq_scan.h"
#include "dft/haar.h"
#include "gtest/gtest.h"
#include "series/normal_form.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::TempDir;

uint64_t SeedCount() {
  const char* env = std::getenv("TSQ_ORACLE_SEEDS");
  if (env == nullptr) return 2;
  const long long count = std::strtoll(env, nullptr, 10);
  return count > 0 ? static_cast<uint64_t>(count) : 2;
}

struct NamedLayout {
  std::string name;
  FeatureLayout layout;
};

std::vector<NamedLayout> Layouts(size_t n) {
  FeatureLayout rectangular = FeatureLayout::Paper();
  rectangular.space = CoordinateSpace::kRectangular;
  FeatureLayout raw = FeatureLayout::Paper();
  raw.normalize = false;
  std::vector<NamedLayout> out = {{"paper", FeatureLayout::Paper()},
                                  {"rectangular", rectangular},
                                  {"agrawal2", FeatureLayout::Agrawal(2)},
                                  {"raw", raw}};
  if (haar::IsValidLength(n)) out.push_back({"haar2", FeatureLayout::Haar(2)});
  return out;
}

struct NamedTransform {
  std::string name;
  std::optional<FeatureTransform> transform;
};

std::vector<NamedTransform> Transforms(size_t n) {
  namespace tr = transforms;
  const size_t w = std::min<size_t>(3, n);
  const RealVec weights = {0.5, 0.3, 0.2};
  auto spectral = [](LinearTransform t) {
    return std::optional<FeatureTransform>(
        FeatureTransform::Spectral(std::move(t)));
  };
  return {
      {"none", std::nullopt},
      {"mavg", spectral(tr::MovingAverage(n, w))},
      {"wmavg",
       spectral(tr::WeightedMovingAverage(
           n, RealVec(weights.begin(), weights.begin() + w)))},
      {"ewma", spectral(tr::ExponentialMovingAverage(n, 0.5, w))},
      {"mavg^2", spectral(tr::SuccessiveMovingAverage(n, w, 2))},
      {"diff", spectral(tr::Difference(n))},
      {"reverse", spectral(tr::Reverse(n))},
      {"shift", spectral(tr::Shift(n, 1.5))},
      {"scale", spectral(tr::Scale(n, 2.5))},
      {"warp", spectral(tr::TimeWarp(n, 2, n / 2 + 1))},
      {"shiftscale", FeatureTransform::ShiftScale(n, 3.0, -2.0)},
  };
}

/// A normal form x and y = x + c * cos(2 pi t / n + phase) with c chosen
/// so that y keeps energy n: y is its own normal form, so up to rounding
/// the two spectra differ only in X_1 and X_{n-1}.
std::pair<RealVec, RealVec> MirrorPair(Rng* rng, size_t n) {
  const RealVec x = ToNormalForm(testing::RandomRealVec(rng, n)).normalized;
  const double phase = rng->Uniform(-std::numbers::pi, std::numbers::pi);
  RealVec s(n);
  double xs = 0.0;
  double ss = 0.0;
  for (size_t t = 0; t < n; ++t) {
    s[t] = std::cos(2.0 * std::numbers::pi * static_cast<double>(t) /
                        static_cast<double>(n) +
                    phase);
    xs += x[t] * s[t];
    ss += s[t] * s[t];
  }
  const double c = -2.0 * xs / ss;
  RealVec y(n);
  for (size_t t = 0; t < n; ++t) y[t] = x[t] + c * s[t];
  return {x, y};
}

/// `count` series of length n: random walks with varied offsets and
/// scales (so windows select among them), two exact duplicates and a
/// shifted, scaled copy (equal normal forms: distance 0 in normalized
/// layouts), and a MirrorPair.
std::vector<RealVec> MakeSeries(uint64_t seed, size_t n, size_t count) {
  Rng rng(seed * 1000003 + n);
  std::vector<RealVec> out;
  for (const TimeSeries& s :
       workload::MakeRandomWalkDataset(seed, count - 5, n)) {
    RealVec v = s.values();
    const double scale = rng.Uniform(0.5, 3.0);
    const double offset = rng.Uniform(-5.0, 5.0);
    for (double& x : v) x = x * scale + offset;
    out.push_back(std::move(v));
  }
  out.push_back(out[0]);
  out.push_back(out[3]);
  RealVec shifted = out[1];
  for (double& x : shifted) x = 2.0 * x + 1.0;
  out.push_back(std::move(shifted));
  auto [x, y] = MirrorPair(&rng, n);
  out.push_back(std::move(x));
  out.push_back(std::move(y));
  return out;
}

/// Creates a database over `series`: the first `indexed` are indexed,
/// the rest inserted afterwards so that they sit in the delta.
std::unique_ptr<Database> MakeDb(const std::string& directory,
                                 const std::string& name,
                                 const FeatureLayout& layout,
                                 const std::vector<RealVec>& series,
                                 size_t indexed) {
  DatabaseOptions options;
  options.directory = directory;
  options.name = name;
  options.layout = layout;
  options.buffer_pool_frames = 64;
  auto db = Database::Create(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  std::vector<std::string> names;
  for (size_t i = 0; i < series.size(); ++i) {
    names.push_back("S" + std::to_string(i));
  }
  const auto split = static_cast<std::ptrdiff_t>(indexed);
  EXPECT_TRUE((*db)
                  ->InsertBatch({names.begin(), names.begin() + split},
                                {series.begin(), series.begin() + split})
                  .ok());
  EXPECT_TRUE((*db)->BuildIndex().ok());
  if (indexed < series.size()) {
    EXPECT_TRUE((*db)
                    ->InsertBatch({names.begin() + split, names.end()},
                                  {series.begin() + split, series.end()})
                    .ok());
  }
  EXPECT_EQ((*db)->CurrentSnapshot()->main->size(), indexed);
  return std::move(*db);
}

/// A record's squared VerifyDistance and its match (distance = the root).
using Scored = std::vector<std::pair<double, Match>>;

/// Brute force over a database's records with the refine's accept rules.
class Oracle {
 public:
  explicit Oracle(Database* db)
      : extractor_(db->extractor()), layout_(db->options().layout) {
    for (SeriesId id = 0; id < db->size(); ++id) {
      auto rec = db->Get(id);
      EXPECT_TRUE(rec.ok());
      const SeriesFeatures f = extractor_.Extract(rec->values);
      records_.push_back(Record{id, rec->name, rec->dft, f.mean, f.std});
    }
  }

  size_t size() const { return records_.size(); }
  const ComplexVec& spectrum(SeriesId id) const { return records_[id].dft; }

  /// The comparison target of `query` under `spec` (PrepareQuery's).
  ComplexVec Target(const RealVec& query, const QuerySpec& spec) const {
    const ComplexVec q = extractor_.Extract(query).spectrum;
    if (spec.transform.has_value() && spec.mode == TransformMode::kBoth) {
      return spec.transform->spectral.Apply(q);
    }
    return q;
  }

  /// Every record's distance to `target`, in id order; each distance is
  /// VerifyDistance's, bit for bit.
  Scored Distances(const ComplexVec& target,
                   const std::optional<FeatureTransform>& t) const {
    Scored out;
    for (const Record& r : records_) {
      const ComplexVec x = t.has_value() ? t->spectral.Apply(r.dft) : r.dft;
      const double d_sq = cvec::DistanceSquared(x, target);
      const double d = std::sqrt(d_sq);
      EXPECT_EQ(std::bit_cast<uint64_t>(d),
                std::bit_cast<uint64_t>(VerifyDistance(r.dft, t, target)));
      out.push_back({d_sq, Match{r.id, r.name, d}});
    }
    return out;
  }

  /// The range answer over ids < limit: d <= eps, inside spec's window
  /// after the transform's action on the mean/std dims (as the index maps
  /// them), ordered by (distance, id).
  std::vector<Match> Range(const Scored& all, double eps,
                           const QuerySpec& spec, uint64_t limit) const {
    std::vector<Match> out;
    for (const auto& [d_sq, m] : all) {
      if (m.id < limit && m.distance <= eps && InWindow(m.id, spec)) {
        out.push_back(m);
      }
    }
    SortMatches(&out);
    return out;
  }

  /// The k nearest among ids < limit by (squared distance, id), the order
  /// the kNN refine ranks by.
  static std::vector<Match> Knn(Scored all, size_t k, uint64_t limit) {
    std::erase_if(all, [limit](const auto& s) { return s.second.id >= limit; });
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.first < b.first ||
             (a.first == b.first && a.second.id < b.second.id);
    });
    std::vector<Match> out;
    for (size_t i = 0; i < std::min(k, all.size()); ++i) {
      out.push_back(all[i].second);
    }
    return out;
  }

  /// Row a: D(T(X_b), T(X_a)) for every b — the join's distances.
  std::vector<Scored> PairDistances(
      const std::optional<FeatureTransform>& t) const {
    std::vector<Scored> rows;
    for (const Record& a : records_) {
      rows.push_back(
          Distances(t.has_value() ? t->spectral.Apply(a.dft) : a.dft, t));
    }
    return rows;
  }

 private:
  bool InWindow(SeriesId id, const QuerySpec& spec) const {
    if (!spec.window.has_value() || !layout_.include_mean_std) return true;
    double mean = records_[id].mean;
    double std = records_[id].std;
    if (spec.transform.has_value()) {
      mean = spec.transform->mean_scale * mean + spec.transform->mean_offset;
      std = spec.transform->std_scale * std;
    }
    const MeanStdWindow& w = *spec.window;
    return mean >= w.mean_lo && mean <= w.mean_hi && std >= w.std_lo &&
           std <= w.std_hi;
  }

  struct Record {
    SeriesId id;
    std::string name;
    ComplexVec dft;
    double mean;
    double std;
  };
  FeatureExtractor extractor_;
  FeatureLayout layout_;
  std::vector<Record> records_;
};

std::string Describe(const std::vector<Match>& ms) {
  std::ostringstream out;
  for (const Match& m : ms) out << m.id << ":" << m.distance << " ";
  return out.str();
}

::testing::AssertionResult SameMatches(const std::vector<Match>& got,
                                       const std::vector<Match>& want) {
  bool same = got.size() == want.size();
  for (size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].id == want[i].id &&
           std::bit_cast<uint64_t>(got[i].distance) ==
               std::bit_cast<uint64_t>(want[i].distance);
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "index [" << Describe(got) << "] oracle [" << Describe(want)
         << "]";
}

/// One database of the matrix: its series, the oracle over them, and the
/// context string failures print.
struct Case {
  std::string context;
  uint64_t seed = 0;
  size_t n = 0;
  std::vector<RealVec> series;
  std::unique_ptr<Database> db;
  std::unique_ptr<Oracle> oracle;

  /// Stored series, a perturbed stored series, a fresh walk and the
  /// second half of the mirror pair.
  std::vector<RealVec> Queries() const {
    Rng rng(seed * 7919 + n);
    RealVec perturbed = series[2];
    for (double& x : perturbed) x += rng.Uniform(-0.05, 0.05);
    return {series[0], perturbed, testing::RandomRealVec(&rng, n),
            series.back()};
  }
};

class FilterOracleTest : public ::testing::Test {
 protected:
  /// One database per (seed, n, layout), shared by the tests (they only
  /// read), each with a third of its series in the delta.
  static void SetUpTestSuite() {
    dir_ = new TempDir();
    cases_ = new std::vector<std::unique_ptr<Case>>();
    for (uint64_t seed = 1; seed <= SeedCount(); ++seed) {
      for (const size_t n : {4u, 7u, 128u}) {
        for (const NamedLayout& nl : Layouts(n)) {
          auto c = std::make_unique<Case>();
          c->seed = seed;
          c->n = n;
          c->context = "seed " + std::to_string(seed) + " n " +
                       std::to_string(n) + " layout " + nl.name;
          c->series = MakeSeries(seed, n, 32);
          c->db = MakeDb(dir_->path(), "db" + std::to_string(cases_->size()),
                         nl.layout, c->series, c->series.size() * 2 / 3);
          c->oracle = std::make_unique<Oracle>(c->db.get());
          cases_->push_back(std::move(c));
        }
      }
    }
  }

  static void TearDownTestSuite() {
    delete cases_;  // closes the databases before their directory goes
    delete dir_;
  }

  /// Runs `body` on every case; stops at the first case with a failure,
  /// so a broken filter prints one context.
  template <typename Body>
  void ForEachCase(Body body) {
    for (const auto& c : *cases_) {
      body(*c);
      if (HasFailure()) return;
    }
  }

  static inline TempDir* dir_ = nullptr;
  static inline std::vector<std::unique_ptr<Case>>* cases_ = nullptr;
};

TEST_F(FilterOracleTest, RangeAnswersEqualTheRefineOverEveryRecord) {
  ForEachCase([&](const Case& c) {
    for (const NamedTransform& nt : Transforms(c.n)) {
      for (const TransformMode mode :
           {TransformMode::kBoth, TransformMode::kDataOnly}) {
        if (!nt.transform.has_value() && mode == TransformMode::kDataOnly) {
          continue;
        }
        QuerySpec spec;
        spec.transform = nt.transform;
        spec.mode = mode;
        std::vector<QuerySpec> specs = {spec};
        for (const RealVec& q : c.Queries()) {
          if (c.db->options().layout.include_mean_std &&
              (nt.name == "none" || nt.name == "mavg" ||
               nt.name == "shiftscale")) {
            // A window around the query's own mean and std (ShiftScale
            // moves the data's mean and std through it).
            const SeriesFeatures qf = c.db->extractor().Extract(q);
            specs.resize(1);
            specs.push_back(spec);
            specs.back().window = MeanStdWindow{
                qf.mean - 4.0, qf.mean + 4.0, 0.3 * qf.std, 3.0 * qf.std};
          }
          const Scored all =
              c.oracle->Distances(c.oracle->Target(q, spec), spec.transform);
          // Thresholds: 0, exact answer distances, a fraction of the
          // diameter, the diameter.
          std::vector<double> sorted;
          for (const auto& [d_sq, m] : all) sorted.push_back(m.distance);
          std::sort(sorted.begin(), sorted.end());
          for (const double eps : {0.0, sorted[1], sorted[sorted.size() / 3],
                                   0.37 * sorted.back(), sorted.back()}) {
            for (const QuerySpec& s : specs) {
              auto got = testing::Range(c.db.get(), q, eps, s);
              if (!got.ok()) {
                // A transform this space cannot take safely is refused,
                // never answered wrongly.
                ASSERT_TRUE(got.status().IsInvalidArgument())
                    << got.status().ToString();
                continue;
              }
              EXPECT_TRUE(SameMatches(
                  *got, c.oracle->Range(all, eps, s, c.oracle->size())))
                  << c.context << " transform " << nt.name << " mode "
                  << static_cast<int>(mode) << " eps " << eps
                  << (s.window.has_value() ? " windowed" : "");
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  });
}

TEST_F(FilterOracleTest, MirrorPairAtItsExactDistance) {
  // The pair's stored distance is D/sqrt(2) up to rounding: the edge of
  // the conjugate-symmetry radius. At eps = D the stored twin must be an
  // answer, under every transform this space accepts.
  ForEachCase([&](const Case& c) {
    const SeriesId twin = c.series.size() - 2;
    const RealVec& q = c.series.back();
    for (const NamedTransform& nt : Transforms(c.n)) {
      QuerySpec spec;
      spec.transform = nt.transform;
      const Scored all =
          c.oracle->Distances(c.oracle->Target(q, spec), spec.transform);
      const double eps = all[twin].second.distance;
      auto got = testing::Range(c.db.get(), q, eps, spec);
      if (!got.ok()) continue;  // refused by this space
      EXPECT_TRUE(
          SameMatches(*got, c.oracle->Range(all, eps, spec, c.oracle->size())))
          << c.context << " transform " << nt.name << " eps " << eps;
      EXPECT_TRUE(std::any_of(got->begin(), got->end(),
                              [twin](const Match& m) { return m.id == twin; }))
          << c.context << " transform " << nt.name;
      if (HasFailure()) return;
    }
  });
}

TEST_F(FilterOracleTest, KnnEqualsBruteForceTopK) {
  ForEachCase([&](const Case& c) {
    for (const NamedTransform& nt : Transforms(c.n)) {
      for (const TransformMode mode :
           {TransformMode::kBoth, TransformMode::kDataOnly}) {
        if (!nt.transform.has_value() && mode == TransformMode::kDataOnly) {
          continue;
        }
        QuerySpec spec;
        spec.transform = nt.transform;
        spec.mode = mode;
        for (const RealVec& q : c.Queries()) {
          const Scored all =
              c.oracle->Distances(c.oracle->Target(q, spec), spec.transform);
          for (const size_t k : {1u, 5u, 20u}) {
            auto got = testing::Knn(c.db.get(), q, k, spec);
            if (!got.ok()) {
              ASSERT_TRUE(got.status().IsInvalidArgument())
                  << got.status().ToString();
              break;
            }
            EXPECT_TRUE(
                SameMatches(*got, Oracle::Knn(all, k, c.oracle->size())))
                << c.context << " transform " << nt.name << " mode "
                << static_cast<int>(mode) << " k " << k;
            if (HasFailure()) return;
          }
        }
      }
    }
  });
}

TEST_F(FilterOracleTest, ApproximateKnnStaysWithinItsBound) {
  // Every reported distance is a true one, the i-th is within (1 + eps)
  // of the true i-th, and the certified max_error is at most eps.
  ForEachCase([&](const Case& c) {
    for (const NamedTransform& nt : Transforms(c.n)) {
      QuerySpec spec;
      spec.transform = nt.transform;
      for (const RealVec& q : c.Queries()) {
        const Scored all =
            c.oracle->Distances(c.oracle->Target(q, spec), spec.transform);
        const size_t k = 5;
        const std::vector<Match> exact = Oracle::Knn(all, k, c.oracle->size());
        for (const double approx : {0.5, 1.0}) {
          KnnOptions options;
          options.epsilon = approx;
          QueryStats stats;
          auto got = testing::Knn(c.db.get(), q, k, spec, options, &stats);
          if (!got.ok()) break;  // refused by this space
          ASSERT_EQ(got->size(), exact.size()) << c.context;
          EXPECT_LE(stats.max_error, approx) << c.context;
          for (size_t i = 0; i < got->size(); ++i) {
            const Match& m = (*got)[i];
            EXPECT_EQ(std::bit_cast<uint64_t>(m.distance),
                      std::bit_cast<uint64_t>(all[m.id].second.distance))
                << c.context << " transform " << nt.name;
            EXPECT_LE(m.distance,
                      (1.0 + approx) * exact[i].distance * (1.0 + 1e-12))
                << c.context << " transform " << nt.name << " rank " << i;
          }
          if (HasFailure()) return;
        }
      }
    }
  });
}

TEST_F(FilterOracleTest, SelfJoinsEqualTheRefineAndTheScan) {
  // Methods c/d and the tree-match join (whose delta probes use the
  // range filter) against every ordered pair's refine distance, and
  // against the sequential-scan join where no pair distance ties eps.
  ForEachCase([&](const Case& c) {
    const SeriesId twin = c.series.size() - 2;
    for (const NamedTransform& nt : Transforms(c.n)) {
      if (nt.name != "none" && nt.name != "mavg" && nt.name != "reverse" &&
          nt.name != "shiftscale") {
        continue;
      }
      const std::optional<FeatureTransform>& t = nt.transform;
      const std::vector<Scored> rows = c.oracle->PairDistances(t);
      std::vector<double> sorted;
      for (const Scored& row : rows) {
        for (const auto& [d_sq, m] : row) sorted.push_back(m.distance);
      }
      std::sort(sorted.begin(), sorted.end());
      // Thresholds: 0 (duplicates), the mirror pair's exact distance, and
      // the tenth percentile of all pair distances.
      for (const double eps : {0.0, rows[twin + 1][twin].second.distance,
                               sorted[sorted.size() / 10]}) {
        std::set<std::pair<SeriesId, SeriesId>> want;
        bool near_tie = false;
        for (SeriesId a = 0; a < rows.size(); ++a) {
          for (const auto& [d_sq, m] : rows[a]) {
            if (m.id != a && m.distance <= eps) want.insert({a, m.id});
            near_tie = near_tie || std::abs(m.distance - eps) <=
                                       1e-9 * (1.0 + eps);
          }
        }
        std::set<std::pair<SeriesId, SeriesId>> scanned;
        if (!near_tie) {
          std::vector<JoinPair> scan;
          ASSERT_TRUE(SeqScanSelfJoin(*c.db->relation(), eps, t,
                                      /*early_abandon=*/false, &scan,
                                      nullptr)
                          .ok());
          for (const JoinPair& p : scan) scanned.insert({p.first, p.second});
        }
        for (const JoinMethod method :
             {JoinMethod::kIndexPlain, JoinMethod::kIndexTransformed,
              JoinMethod::kTreeMatch}) {
          // Method c ignores the transform, so it runs untransformed only.
          if (method == JoinMethod::kIndexPlain && t.has_value()) continue;
          auto got = c.db->SelfJoin(eps, method, t);
          if (!got.ok()) {
            ASSERT_TRUE(got.status().IsInvalidArgument())
                << got.status().ToString();
            continue;
          }
          std::set<std::pair<SeriesId, SeriesId>> pairs;
          for (const JoinPair& p : *got) {
            pairs.insert({p.first, p.second});
            EXPECT_EQ(std::bit_cast<uint64_t>(p.distance),
                      std::bit_cast<uint64_t>(
                          rows[p.first][p.second].second.distance))
                << c.context;
          }
          EXPECT_EQ(pairs.size(), got->size()) << c.context;
          EXPECT_EQ(pairs, want)
              << c.context << " transform " << nt.name << " method "
              << static_cast<int>(method) << " eps " << eps;
          if (!near_tie) {
            std::set<std::pair<SeriesId, SeriesId>> unordered;
            for (const auto& [a, b] : pairs) {
              unordered.insert({std::min(a, b), std::max(a, b)});
            }
            EXPECT_EQ(unordered, scanned) << c.context << " eps " << eps;
          }
          if (HasFailure()) return;
        }
      }
    }
  });
}

TEST_F(FilterOracleTest, RangesRacingInsertBatchSeeADensePrefix) {
  // Each answer must equal the oracle over ids [0, V) for some V between
  // the ids acknowledged before the query and those stored after it:
  // delta candidates pass the same leaf test as tree leaves.
  const size_t n = 128;
  const std::vector<RealVec> series = MakeSeries(SeedCount() + 7, n, 96);
  const size_t base = 48;
  std::unique_ptr<Database> db =
      MakeDb(dir_->path(), "race", FeatureLayout::Paper(),
             {series.begin(), series.begin() + base}, base);
  std::atomic<uint64_t> acknowledged{base};
  std::thread writer([&] {
    for (size_t i = base; i < series.size(); i += 8) {
      const size_t end = std::min(i + 8, series.size());
      std::vector<std::string> names;
      for (size_t j = i; j < end; ++j) names.push_back("S" + std::to_string(j));
      EXPECT_TRUE(db->InsertBatch(names, {series.begin() + i,
                                          series.begin() + end})
                      .ok());
      acknowledged.store(end, std::memory_order_release);
    }
  });
  struct Observed {
    size_t query;
    QuerySpec spec;
    double eps;
    uint64_t lo;
    uint64_t hi;
    std::vector<Match> answers;
  };
  std::vector<Observed> observed;
  QuerySpec tmavg;
  tmavg.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(n, 20));
  for (size_t round = 0; round < 24; ++round) {
    for (const QuerySpec& spec : {QuerySpec{}, tmavg}) {
      const size_t query = (round * 13) % series.size();
      const double eps = 0.12 * std::sqrt(double(n)) * (1 + round % 4);
      const uint64_t lo = acknowledged.load(std::memory_order_acquire);
      auto got = testing::Range(db.get(), series[query], eps, spec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      observed.push_back(
          Observed{query, spec, eps, lo, db->size(), std::move(*got)});
    }
  }
  writer.join();
  const Oracle oracle(db.get());
  for (const Observed& o : observed) {
    const Scored all = oracle.Distances(
        oracle.Target(series[o.query], o.spec), o.spec.transform);
    bool matched = false;
    for (uint64_t v = o.lo; v <= o.hi && !matched; ++v) {
      matched = SameMatches(o.answers, oracle.Range(all, o.eps, o.spec, v));
    }
    EXPECT_TRUE(matched) << "no dense prefix in [" << o.lo << ", " << o.hi
                         << "] explains " << Describe(o.answers);
  }
}

}  // namespace
}  // namespace tsq
