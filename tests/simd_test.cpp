// Copyright (c) 2026 The tsq Authors.
//
// Executable proof of the kernel layer's lane-reduction determinism
// contract (src/simd/simd.h): every dispatch level must produce BITWISE
// identical doubles — on adversarial inputs (NaN, infinities, denormals,
// mixed magnitudes, negative zero), on every length around the block
// boundaries, and on unaligned pointers. The scalar level is the
// executable spec; SSE2/AVX2 are compared against it with EXPECT_EQ on
// the bit patterns, not EXPECT_NEAR.
//
// The second half pins the approximate-kNN invariants: epsilon = 0 is
// bit-identical to the exact path at every dispatch level, reported
// max_error never exceeds the requested tolerance, and the probe budget
// caps the verification work it claims to cap.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/database.h"
#include "gtest/gtest.h"
#include "series/distance.h"
#include "simd/simd.h"
#include "test_util.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using simd::KernelTable;
using simd::Level;
using testing::Knn;
using testing::TempDir;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormal = 4.9406564584124654e-324;  // min subnormal

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::vector<Level> SupportedLevels() {
  std::vector<Level> out;
  for (Level level : {Level::kScalar, Level::kSse2, Level::kAvx2}) {
    if (static_cast<int>(level) <=
        static_cast<int>(simd::BestSupportedLevel())) {
      out.push_back(level);
    }
  }
  return out;
}

/// Restores the dispatched level when a test that overrides it exits.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::SetLevelForTesting(saved_); }

 private:
  Level saved_;
};

/// Lengths straddling every boundary the kernels care about: the 4-wide
/// lane blocks, the 16-element EA checkpoints, and the <4 tail.
const size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,   12,  13,
                           15, 16, 17, 19, 31, 32, 33, 63,  64,  65,  100,
                           127, 128, 129, 255, 256, 1000};

/// One named adversarial input pair.
struct Adversarial {
  const char* name;
  RealVec x;
  RealVec y;
};

std::vector<Adversarial> AdversarialPairs(size_t n, Rng* rng) {
  std::vector<Adversarial> cases;
  cases.push_back({"uniform", testing::RandomRealVec(rng, n),
                   testing::RandomRealVec(rng, n)});
  // Nine orders of magnitude apart per element — stresses rounding of the
  // running sums, where a wrong accumulation order shows up first.
  RealVec big(n), small(n);
  for (size_t i = 0; i < n; ++i) {
    big[i] = rng->Uniform(-1.0, 1.0) * 1e9;
    small[i] = rng->Uniform(-1.0, 1.0) * 1e-9;
  }
  cases.push_back({"mixed-magnitude", big, small});
  if (n > 0) {
    RealVec with_nan = testing::RandomRealVec(rng, n);
    with_nan[n / 2] = kNan;
    cases.push_back({"nan", with_nan, testing::RandomRealVec(rng, n)});
    RealVec with_inf = testing::RandomRealVec(rng, n);
    with_inf[0] = kInf;
    with_inf[n - 1] = -kInf;
    cases.push_back({"inf", with_inf, testing::RandomRealVec(rng, n)});
    RealVec denorm(n, kDenormal), negzero(n, -0.0);
    denorm[n / 2] = 1e-310;
    cases.push_back({"denormal-negzero", denorm, negzero});
  }
  return cases;
}

TEST(SimdDispatch, ParseAndNames) {
  EXPECT_EQ(simd::ParseLevel("scalar"), Level::kScalar);
  EXPECT_EQ(simd::ParseLevel("SSE2"), Level::kSse2);
  EXPECT_EQ(simd::ParseLevel("Avx2"), Level::kAvx2);
  EXPECT_EQ(simd::ParseLevel("avx512"), std::nullopt);
  EXPECT_EQ(simd::ParseLevel(""), std::nullopt);
  for (Level level : SupportedLevels()) {
    EXPECT_EQ(simd::ParseLevel(simd::LevelName(level)), level);
  }
}

TEST(SimdDispatch, SetLevelForTestingRoundTrip) {
  LevelGuard guard;
  for (Level level : SupportedLevels()) {
    ASSERT_TRUE(simd::SetLevelForTesting(level));
    EXPECT_EQ(simd::ActiveLevel(), level);
  }
}

TEST(SimdKernels, SumSquaredDiffBitwiseAcrossLevels) {
  const KernelTable& scalar = simd::KernelsFor(Level::kScalar);
  Rng rng(0x51);
  for (size_t n : kLengths) {
    for (const Adversarial& c : AdversarialPairs(n, &rng)) {
      const double want = scalar.sum_squared_diff(c.x.data(), c.y.data(), n);
      for (Level level : SupportedLevels()) {
        const KernelTable& k = simd::KernelsFor(level);
        EXPECT_EQ(Bits(k.sum_squared_diff(c.x.data(), c.y.data(), n)),
                  Bits(want))
            << c.name << " n=" << n << " level=" << simd::LevelName(level);
        // Unaligned: the same buffers shifted one double — no kernel may
        // assume 16/32-byte alignment.
        if (n >= 2) {
          const double want_off = scalar.sum_squared_diff(
              c.x.data() + 1, c.y.data() + 1, n - 1);
          EXPECT_EQ(
              Bits(k.sum_squared_diff(c.x.data() + 1, c.y.data() + 1, n - 1)),
              Bits(want_off))
              << c.name << " unaligned n-1=" << n - 1 << " level="
              << simd::LevelName(level);
        }
      }
    }
  }
}

TEST(SimdKernels, EarlyAbandonExactnessAndBitwiseAgreement) {
  const KernelTable& scalar = simd::KernelsFor(Level::kScalar);
  Rng rng(0x52);
  for (size_t n : kLengths) {
    const RealVec x = testing::RandomRealVec(&rng, n);
    const RealVec y = testing::RandomRealVec(&rng, n);
    const double full = scalar.sum_squared_diff(x.data(), y.data(), n);
    const double limits[] = {0.0,      full * 0.01, full * 0.5,
                             full,     full * 2.0,  kInf};
    for (double limit : limits) {
      const double want = scalar.sum_squared_diff_ea(x.data(), y.data(), n,
                                                     limit);
      // The contract: a result within the limit IS the exact full sum
      // (bitwise); a result above it is the pinned checkpoint partial.
      if (want <= limit) {
        EXPECT_EQ(Bits(want), Bits(full)) << "n=" << n << " limit=" << limit;
      } else {
        EXPECT_GT(want, limit);
      }
      for (Level level : SupportedLevels()) {
        const KernelTable& k = simd::KernelsFor(level);
        EXPECT_EQ(Bits(k.sum_squared_diff_ea(x.data(), y.data(), n, limit)),
                  Bits(want))
            << "n=" << n << " limit=" << limit
            << " level=" << simd::LevelName(level);
      }
    }
    // A NaN sum never abandons (NaN > limit is false) and must still
    // agree bitwise.
    if (n > 0) {
      RealVec nx = x;
      nx[0] = kNan;
      const double want =
          scalar.sum_squared_diff_ea(nx.data(), y.data(), n, 1.0);
      for (Level level : SupportedLevels()) {
        const KernelTable& k = simd::KernelsFor(level);
        EXPECT_EQ(Bits(k.sum_squared_diff_ea(nx.data(), y.data(), n, 1.0)),
                  Bits(want))
            << "nan n=" << n << " level=" << simd::LevelName(level);
      }
    }
  }
}

TEST(SimdKernels, MinDistSquaredBitwiseAcrossLevels) {
  const KernelTable& scalar = simd::KernelsFor(Level::kScalar);
  Rng rng(0x53);
  for (size_t n : kLengths) {
    RealVec p = testing::RandomRealVec(&rng, n, -100.0, 100.0);
    RealVec lo(n), hi(n);
    for (size_t i = 0; i < n; ++i) {
      double a = rng.Uniform(-100.0, 100.0);
      double b = rng.Uniform(-100.0, 100.0);
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    // Force all three gap cases: below lo, inside, above hi.
    if (n >= 3) {
      p[0] = lo[0] - 5.0;
      p[1] = (lo[1] + hi[1]) / 2;
      p[2] = hi[2] + 5.0;
    }
    const double want = scalar.min_dist_squared(p.data(), lo.data(),
                                                hi.data(), n);
    for (Level level : SupportedLevels()) {
      const KernelTable& k = simd::KernelsFor(level);
      EXPECT_EQ(Bits(k.min_dist_squared(p.data(), lo.data(), hi.data(), n)),
                Bits(want))
          << "n=" << n << " level=" << simd::LevelName(level);
    }
    // NaN coordinate: hardware max semantics (second operand wins) must
    // hold at every level.
    if (n > 0) {
      RealVec pn = p;
      pn[n / 2] = kNan;
      const double want_nan = scalar.min_dist_squared(pn.data(), lo.data(),
                                                      hi.data(), n);
      for (Level level : SupportedLevels()) {
        const KernelTable& k = simd::KernelsFor(level);
        EXPECT_EQ(
            Bits(k.min_dist_squared(pn.data(), lo.data(), hi.data(), n)),
            Bits(want_nan))
            << "nan n=" << n << " level=" << simd::LevelName(level);
      }
    }
  }
}

TEST(SimdKernels, MinDistSquaredBatchMatchesSingle) {
  Rng rng(0x54);
  const size_t n = 18;  // blocks + tail
  const size_t count = 37;
  const RealVec p = testing::RandomRealVec(&rng, n, -50.0, 50.0);
  std::vector<RealVec> los(count), his(count);
  std::vector<const double*> lo_ptrs(count), hi_ptrs(count);
  for (size_t i = 0; i < count; ++i) {
    los[i].resize(n);
    his[i].resize(n);
    for (size_t d = 0; d < n; ++d) {
      double a = rng.Uniform(-50.0, 50.0);
      double b = rng.Uniform(-50.0, 50.0);
      los[i][d] = std::min(a, b);
      his[i][d] = std::max(a, b);
    }
    lo_ptrs[i] = los[i].data();
    hi_ptrs[i] = his[i].data();
  }
  for (Level level : SupportedLevels()) {
    const KernelTable& k = simd::KernelsFor(level);
    std::vector<double> out(count, -1.0);
    k.min_dist_squared_batch(p.data(), lo_ptrs.data(), hi_ptrs.data(), count,
                             n, out.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(Bits(out[i]),
                Bits(k.min_dist_squared(p.data(), lo_ptrs[i], hi_ptrs[i], n)))
          << "rect " << i << " level=" << simd::LevelName(level);
    }
  }
}

TEST(SimdKernels, MomentAndElementwiseKernelsBitwiseAcrossLevels) {
  const KernelTable& scalar = simd::KernelsFor(Level::kScalar);
  Rng rng(0x55);
  for (size_t n : kLengths) {
    for (const Adversarial& c : AdversarialPairs(n, &rng)) {
      const double sum = scalar.sum(c.x.data(), n);
      const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
      const double css = scalar.centered_sum_squares(c.x.data(), n, mean);
      const double energy = scalar.centered_sum_squares(c.x.data(), n, 0.0);
      RealVec shifted_want(n), scaled_want = c.x, widened_want(2 * n);
      scalar.scale_shift(c.x.data(), n, mean, 3.25, shifted_want.data());
      scalar.scale_inplace(scaled_want.data(), n, 0.125);
      scalar.widen_to_complex(c.x.data(), n, widened_want.data());
      for (Level level : SupportedLevels()) {
        const KernelTable& k = simd::KernelsFor(level);
        EXPECT_EQ(Bits(k.sum(c.x.data(), n)), Bits(sum))
            << c.name << " n=" << n << " " << simd::LevelName(level);
        EXPECT_EQ(Bits(k.centered_sum_squares(c.x.data(), n, mean)),
                  Bits(css))
            << c.name << " n=" << n << " " << simd::LevelName(level);
        EXPECT_EQ(Bits(k.centered_sum_squares(c.x.data(), n, 0.0)),
                  Bits(energy))
            << c.name << " n=" << n << " " << simd::LevelName(level);
        RealVec shifted(n), scaled = c.x, widened(2 * n);
        k.scale_shift(c.x.data(), n, mean, 3.25, shifted.data());
        k.scale_inplace(scaled.data(), n, 0.125);
        k.widen_to_complex(c.x.data(), n, widened.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(shifted[i]), Bits(shifted_want[i]))
              << c.name << " i=" << i << " " << simd::LevelName(level);
          ASSERT_EQ(Bits(scaled[i]), Bits(scaled_want[i]))
              << c.name << " i=" << i << " " << simd::LevelName(level);
          ASSERT_EQ(Bits(widened[2 * i]), Bits(widened_want[2 * i]))
              << c.name << " i=" << i << " " << simd::LevelName(level);
          ASSERT_EQ(Bits(widened[2 * i + 1]), 0u)
              << c.name << " i=" << i << " " << simd::LevelName(level);
        }
      }
    }
  }
}

TEST(SimdKernels, EarlyAbandonEuclideanWrapperAgrees) {
  // The series-level wrapper (series/distance.h) must map the kernel's
  // "checkpoint partial > limit" convention to nullopt, and return the
  // exact distance otherwise.
  Rng rng(0x56);
  const RealVec x = testing::RandomRealVec(&rng, 64);
  const RealVec y = testing::RandomRealVec(&rng, 64);
  const double d = std::sqrt(simd::SumSquaredDiff(x.data(), y.data(), 64));
  auto hit = EarlyAbandonEuclidean(x, y, d * 1.001);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Bits(*hit), Bits(d));
  auto miss = EarlyAbandonEuclidean(x, y, d * 0.1);
  EXPECT_FALSE(miss.has_value());
}

// ---------------------------------------------------------------------------
// Approximate kNN invariants (KnnOptions) and cross-level query identity.
// ---------------------------------------------------------------------------

class ApproxKnnTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> MakeDb(size_t count, size_t length,
                                   uint64_t seed = 42) {
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "db" + std::to_string(db_counter_++);
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

TEST_F(ApproxKnnTest, ExactKnnBitIdenticalAcrossDispatchLevels) {
  LevelGuard guard;
  auto db = MakeDb(250, 64);
  Rng rng(0x57);
  for (int q = 0; q < 3; ++q) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    std::vector<std::vector<Match>> per_level;
    for (Level level : SupportedLevels()) {
      ASSERT_TRUE(simd::SetLevelForTesting(level));
      auto knn = Knn(db.get(), query, 10);
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      per_level.push_back(std::move(*knn));
    }
    for (size_t l = 1; l < per_level.size(); ++l) {
      ASSERT_EQ(per_level[l].size(), per_level[0].size());
      for (size_t i = 0; i < per_level[0].size(); ++i) {
        EXPECT_EQ(per_level[l][i].id, per_level[0][i].id) << "rank " << i;
        EXPECT_EQ(Bits(per_level[l][i].distance),
                  Bits(per_level[0][i].distance))
            << "rank " << i << " level "
            << simd::LevelName(SupportedLevels()[l]);
      }
    }
  }
}

TEST_F(ApproxKnnTest, EpsilonZeroBitIdenticalToExact) {
  auto db = MakeDb(200, 64);
  Rng rng(0x58);
  for (int q = 0; q < 3; ++q) {
    const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
    QueryStats exact_stats;
    auto exact = Knn(db.get(), query, 10, {}, {}, &exact_stats);
    ASSERT_TRUE(exact.ok());
    // Probe budget high enough to never fire + epsilon 0: the stop rule
    // multiplies bounds by exactly 1.0, so every comparison — and thus
    // every answer bit — matches the default-options run.
    KnnOptions options;
    options.probe_budget = 100000;
    QueryStats stats;
    auto approx = Knn(db.get(), query, 10, {}, options, &stats);
    ASSERT_TRUE(approx.ok());
    ASSERT_EQ(approx->size(), exact->size());
    for (size_t i = 0; i < exact->size(); ++i) {
      EXPECT_EQ((*approx)[i].id, (*exact)[i].id) << "rank " << i;
      EXPECT_EQ(Bits((*approx)[i].distance), Bits((*exact)[i].distance))
          << "rank " << i;
    }
    EXPECT_EQ(stats.candidates, exact_stats.candidates);
    EXPECT_EQ(stats.max_error, 0.0);
    EXPECT_TRUE(stats.approx);       // non-default options were in effect
    EXPECT_FALSE(exact_stats.approx);
  }
}

TEST_F(ApproxKnnTest, EpsilonBoundsReportedAndTrueError) {
  auto db = MakeDb(300, 64);
  Rng rng(0x59);
  const size_t k = 10;
  for (double epsilon : {0.05, 0.2, 1.0}) {
    for (int q = 0; q < 3; ++q) {
      const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
      auto exact = Knn(db.get(), query, k);
      ASSERT_TRUE(exact.ok());
      KnnOptions options;
      options.epsilon = epsilon;
      QueryStats stats;
      auto approx = Knn(db.get(), query, k, {}, options, &stats);
      ASSERT_TRUE(approx.ok());
      ASSERT_EQ(approx->size(), k);
      EXPECT_TRUE(stats.approx);
      // The a-priori guarantee, both as reported and against the truth:
      // reported error within epsilon, and the k-th reported distance
      // within (1+epsilon) of the true k-th distance.
      EXPECT_LE(stats.max_error, epsilon + 1e-12) << "eps=" << epsilon;
      EXPECT_LE((*approx)[k - 1].distance,
                (1.0 + epsilon) * (*exact)[k - 1].distance + 1e-12)
          << "eps=" << epsilon;
      // Every reported distance is at least the true distance of that
      // rank (the approx answer can only miss neighbors, never invent
      // closer ones).
      for (size_t i = 0; i < k; ++i) {
        EXPECT_GE((*approx)[i].distance, (*exact)[i].distance - 1e-12)
            << "rank " << i;
      }
      // pruned accounts for everything not verified.
      EXPECT_EQ(stats.candidates + stats.pruned, 300u);
    }
  }
}

TEST_F(ApproxKnnTest, ProbeBudgetCapsVerificationWork) {
  auto db = MakeDb(250, 64);
  Rng rng(0x5a);
  const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
  KnnOptions options;
  options.probe_budget = 20;
  QueryStats stats;
  auto approx = Knn(db.get(), query, 10, {}, options, &stats);
  ASSERT_TRUE(approx.ok());
  EXPECT_LE(stats.candidates, 20u);
  EXPECT_EQ(approx->size(), 10u);  // budget > k: still a full answer set
  EXPECT_TRUE(stats.approx);
  // A budget below k can only return what it verified, and the missing
  // ranks make any finite error bound unsound: max_error must be
  // infinite, never a false 0.
  options.probe_budget = 4;
  approx = Knn(db.get(), query, 10, {}, options, &stats);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->size(), 4u);
  EXPECT_LE(stats.candidates, 4u);
  EXPECT_TRUE(std::isinf(stats.max_error));
  // A budget of exactly k is the ng-approximate "first leaf" stop: it
  // ends at the first emission after the k-th verification, and the
  // reported error bounds the true one.
  options.probe_budget = 10;
  approx = Knn(db.get(), query, 10, {}, options, &stats);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx->size(), 10u);
  EXPECT_EQ(stats.candidates, 10u);
  EXPECT_TRUE(std::isfinite(stats.max_error));
  auto exact = Knn(db.get(), query, 10);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE((*approx)[9].distance,
            (1.0 + stats.max_error) * (*exact)[9].distance + 1e-9);
}

TEST_F(ApproxKnnTest, NegativeEpsilonRejected) {
  auto db = MakeDb(20, 32);
  KnnOptions options;
  options.epsilon = -0.5;
  EXPECT_TRUE(Knn(db.get(), RealVec(32, 0.0), 3, {}, options)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ApproxKnnTest, ApproxOptionsThroughBatchEngine) {
  auto db = MakeDb(200, 64);
  Rng rng(0x5c);
  const RealVec query = workload::RandomWalkSeries(&rng, 64, {});
  engine::BatchQuery exact_q;
  exact_q.kind = engine::BatchQueryKind::kKnn;
  exact_q.query = query;
  exact_q.k = 5;
  engine::BatchQuery approx_q = exact_q;
  approx_q.knn.epsilon = 0.3;
  auto results = db->RunBatch({exact_q, approx_q}, 2);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 2u);
  ASSERT_TRUE((*results)[0].status.ok());
  ASSERT_TRUE((*results)[1].status.ok());
  EXPECT_FALSE((*results)[0].stats.approx);
  EXPECT_TRUE((*results)[1].stats.approx);
  EXPECT_LE((*results)[1].stats.max_error, 0.3 + 1e-12);
  EXPECT_LE((*results)[1].stats.candidates, (*results)[0].stats.candidates);
  ASSERT_EQ((*results)[1].matches.size(), 5u);
  EXPECT_LE((*results)[1].matches[4].distance,
            1.3 * (*results)[0].matches[4].distance + 1e-12);
}

}  // namespace
}  // namespace tsq
