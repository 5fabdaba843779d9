// Copyright (c) 2026 The tsq Authors.
//
// Tests for the thread pool and the concurrent batch query engine: a
// ParallelFor nested in a pool task must finish, a thread cap must bound
// the drivers with the caller among them, batch answers must be exactly
// the direct single-query answers for every thread count, and a single
// query — a one-element batch — must run on its caller with stats that
// are exactly its own.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "engine/query_engine.h"
#include "engine/thread_pool.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using engine::BatchQuery;
using engine::BatchQueryKind;
using engine::BatchResult;
using engine::BatchStats;
using engine::ThreadPool;

constexpr size_t kNumSeries = 160;
constexpr size_t kLength = 128;
constexpr uint64_t kSeed = 20260729;

const size_t kThreadCounts[] = {1, 2, 4, 8};

void ExpectSameMatches(const std::vector<Match>& actual,
                       const std::vector<Match>& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << what << " at " << i;
    EXPECT_EQ(actual[i].name, expected[i].name) << what << " at " << i;
    // Batch and sequential paths run the same arithmetic, so the
    // distances must agree bit-for-bit, not just approximately.
    EXPECT_EQ(actual[i].distance, expected[i].distance) << what << " at " << i;
  }
}

void ExpectSamePairs(const std::vector<JoinPair>& actual,
                     const std::vector<JoinPair>& expected,
                     const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first) << what << " at " << i;
    EXPECT_EQ(actual[i].second, expected[i].second) << what << " at " << i;
    EXPECT_EQ(actual[i].distance, expected[i].distance) << what << " at " << i;
  }
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = workload::MakeRandomWalkDataset(kSeed, kNumSeries, kLength);
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "engine";
    db_ = Database::Create(options).value();
    for (const TimeSeries& s : data_) {
      ASSERT_TRUE(db_->Insert(s.name(), s.values()).ok());
    }
    ASSERT_TRUE(db_->BuildIndex().ok());
  }

  /// A mixed, seeded workload: stored series and perturbed copies, plain
  /// and transformed specs, loose and tight thresholds.
  std::vector<BatchQuery> MakeBatch(size_t count) {
    Rng rng(kSeed + 1);
    QuerySpec smoothed;
    smoothed.transform =
        FeatureTransform::Spectral(transforms::MovingAverage(kLength, 8));
    std::vector<BatchQuery> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      BatchQuery q;
      RealVec values = data_[(i * 13) % kNumSeries].values();
      if (i % 3 == 0) {
        for (double& v : values) v += rng.Uniform(-1.0, 1.0);
      }
      q.query = std::move(values);
      if (i % 4 == 1) {
        q.kind = BatchQueryKind::kKnn;
        q.k = 1 + i % 7;
      } else {
        q.kind = BatchQueryKind::kRange;
        q.epsilon = (i % 2 == 0) ? 2.0 : 8.0;
      }
      if (i % 5 == 2) q.spec = smoothed;
      batch.push_back(std::move(q));
    }
    return batch;
  }

  /// The direct, single-threaded Algorithm 2 answer for one batch entry
  /// (core/queries.h over the current snapshot, no engine involved).
  Result<std::vector<Match>> Sequential(const BatchQuery& q) {
    const IndexView view(*db_->CurrentSnapshot());
    std::vector<Match> out;
    TSQ_RETURN_IF_ERROR(
        q.kind == BatchQueryKind::kKnn
            ? IndexKnnQuery(view, *db_->relation(), q.query, q.k, q.spec,
                            q.knn, &out, /*stats=*/nullptr)
            : IndexRangeQuery(view, *db_->relation(), q.query, q.epsilon,
                              q.spec, &out, /*stats=*/nullptr));
    return out;
  }

  /// A join's pairs as unordered {min, max} pairs, each once (index
  /// methods emit both orders of every pair, the scans one).
  static std::set<std::pair<SeriesId, SeriesId>> Unordered(
      const std::vector<JoinPair>& pairs) {
    std::set<std::pair<SeriesId, SeriesId>> out;
    for (const JoinPair& p : pairs) {
      out.emplace(std::min(p.first, p.second), std::max(p.first, p.second));
    }
    return out;
  }

  testing::TempDir dir_;
  std::vector<TimeSeries> data_;
  std::unique_ptr<Database> db_;
};

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
  // The pool stays usable after a Wait.
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1001);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

/// The threads ParallelFor(n, ..., max_drivers) on `pool` ran its calls
/// on. Each call sleeps briefly, so every driver that is free gets to
/// claim indices.
std::set<std::thread::id> ParallelForThreads(ThreadPool* pool, size_t n,
                                             size_t max_drivers = 0) {
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  std::vector<int> calls(n, 0);
  pool->ParallelFor(
      n,
      [&](size_t i) {
        ++calls[i];
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mutex);
        ran_on.insert(std::this_thread::get_id());
      },
      max_drivers);
  EXPECT_EQ(std::count(calls.begin(), calls.end(), 1),
            static_cast<std::ptrdiff_t>(n));
  return ran_on;
}

TEST(ThreadPoolTest, OneDriverRunsOnTheCaller) {
  // Where only one driver would run — n == 1, or a one-worker pool — the
  // caller is that driver: no task is queued, so a single query costs no
  // hand-off to a worker and back.
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  ThreadPool pool(4);
  EXPECT_EQ(ParallelForThreads(&pool, 1), caller);
  ThreadPool one(1);
  EXPECT_EQ(ParallelForThreads(&one, 1), caller);
  EXPECT_EQ(ParallelForThreads(&one, 64), caller);
}

TEST(ThreadPoolTest, MaxDriversCapsTheDriversAndTheCallerIsOne) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool pool(4);
  for (const size_t max_drivers : {1u, 2u, 3u, 4u}) {
    const std::set<std::thread::id> drivers =
        ParallelForThreads(&pool, 64, max_drivers);
    EXPECT_LE(drivers.size(), max_drivers) << "max_drivers=" << max_drivers;
    EXPECT_EQ(drivers.count(caller), 1u) << "max_drivers=" << max_drivers;
  }
  // 0 means the pool size, the caller counted.
  EXPECT_LE(ParallelForThreads(&pool, 64).size(), pool.size());

  // With every worker parked, the caller alone finishes all n indices:
  // a ParallelFor never waits on a queued helper.
  testing::Watchdog watchdog("ParallelFor with every worker busy", 60);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  size_t parked = 0;
  bool release = false;
  for (size_t w = 0; w < pool.size(); ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(gate_mutex);
      ++parked;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return parked == pool.size(); });
  }
  EXPECT_EQ(ParallelForThreads(&pool, 64),
            std::set<std::thread::id>{caller});
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  pool.Wait();
}

TEST(ThreadPoolTest, NestedParallelForOnEveryWorkerCompletes) {
  // Every worker of the pool runs a task that calls ParallelFor on the
  // same pool while no worker is free to help: each call must finish on
  // its own caller, and every index must run exactly once.
  testing::Watchdog watchdog("nested ParallelFor", 60);
  constexpr size_t kWorkers = 2;
  constexpr size_t kIndices = 64;
  ThreadPool pool(kWorkers);
  std::mutex mutex;
  std::condition_variable all_started;
  size_t started = 0;
  std::atomic<int> calls[kWorkers][kIndices] = {};
  for (size_t w = 0; w < kWorkers; ++w) {
    pool.Submit([&, w] {
      {
        // Rendezvous: both workers are inside a task before either
        // calls ParallelFor, so no worker is idle to run a helper.
        std::unique_lock<std::mutex> lock(mutex);
        ++started;
        all_started.notify_all();
        all_started.wait(lock, [&] { return started == kWorkers; });
      }
      pool.ParallelFor(kIndices, [&, w](size_t i) { calls[w][i]++; });
    });
  }
  pool.Wait();
  for (size_t w = 0; w < kWorkers; ++w) {
    for (size_t i = 0; i < kIndices; ++i) {
      EXPECT_EQ(calls[w][i].load(), 1) << "task " << w << " index " << i;
    }
  }
}

TEST(QueryStatsTest, MergeAccumulatesEveryField) {
  QueryStats a;
  a.candidates = 1;
  a.verified = 2;
  a.answers = 3;
  a.nodes_visited = 4;
  a.rect_transforms = 5;
  a.disk_reads = 6;
  a.records_scanned = 7;
  a.elapsed_ms = 1.5;
  QueryStats b = a;
  b.Merge(a);
  EXPECT_EQ(b.candidates, 2u);
  EXPECT_EQ(b.verified, 4u);
  EXPECT_EQ(b.answers, 6u);
  EXPECT_EQ(b.nodes_visited, 8u);
  EXPECT_EQ(b.rect_transforms, 10u);
  EXPECT_EQ(b.disk_reads, 12u);
  EXPECT_EQ(b.records_scanned, 14u);
  EXPECT_DOUBLE_EQ(b.elapsed_ms, 3.0);
}

TEST_F(EngineTest, BatchEqualsSequentialAtEveryThreadCount) {
  const std::vector<BatchQuery> batch = MakeBatch(32);

  // Ground truth from the direct single-query steps.
  std::vector<std::vector<Match>> expected;
  size_t nonempty = 0;
  for (const BatchQuery& q : batch) {
    expected.push_back(Sequential(q).value());
    if (!expected.back().empty()) ++nonempty;
  }
  ASSERT_GT(nonempty, batch.size() / 2) << "workload too selective";

  for (const size_t threads : kThreadCounts) {
    BatchStats stats;
    Result<std::vector<BatchResult>> results =
        db_->RunBatch(batch, threads, &stats);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const BatchResult& r = (*results)[i];
      ASSERT_TRUE(r.status.ok())
          << "threads=" << threads << " query=" << i << ": "
          << r.status.ToString();
      ExpectSameMatches(r.matches, expected[i],
                        "threads=" + std::to_string(threads) + " query=" +
                            std::to_string(i));
    }
    EXPECT_EQ(stats.aggregate.answers,
              [&expected] {
                size_t n = 0;
                for (const auto& e : expected) n += e.size();
                return n;
              }())
        << "threads=" << threads;
    EXPECT_GT(stats.aggregate.candidates, 0u);
  }
}

TEST_F(EngineTest, BatchDeterministicAcrossThreadCounts) {
  const std::vector<BatchQuery> batch = MakeBatch(48);
  const std::vector<BatchResult> baseline = db_->RunBatch(batch, 1).value();
  for (const size_t threads : {2u, 4u, 8u}) {
    const std::vector<BatchResult> run = db_->RunBatch(batch, threads).value();
    ASSERT_EQ(run.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(run[i].status.code(), baseline[i].status.code());
      ExpectSameMatches(run[i].matches, baseline[i].matches,
                        "threads=" + std::to_string(threads) + " query=" +
                            std::to_string(i));
    }
  }
}

TEST_F(EngineTest, TreeMatchJoinIdenticalAtEveryThreadCountAndRun) {
  // The parallel descent and verification must reproduce one canonical
  // answer — same pairs, same order, same stats — at every worker count
  // and on every run (per-seed buffers merged in seed order leave no
  // scheduling dependence). One thread is the reference.
  const double eps = 6.0;
  const auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 8));

  for (const std::optional<FeatureTransform>& t :
       {std::optional<FeatureTransform>(transform),
        std::optional<FeatureTransform>()}) {
    const std::string what = t.has_value() ? "Tmavg8" : "plain";
    QueryStats expected_stats;
    const std::vector<JoinPair> expected =
        db_->SelfJoin(eps, JoinMethod::kTreeMatch, t, &expected_stats,
                      /*threads=*/1)
            .value();
    ASSERT_FALSE(expected.empty()) << what << ": threshold too selective";
    EXPECT_EQ(expected_stats.answers, expected.size()) << what;
    EXPECT_GE(expected_stats.candidates, expected.size()) << what;
    EXPECT_GT(expected_stats.nodes_visited, 0u) << what;

    for (const size_t threads : kThreadCounts) {
      for (int run = 0; run < 2; ++run) {
        const std::string where = what + " threads=" +
                                  std::to_string(threads) + " run=" +
                                  std::to_string(run);
        QueryStats stats;
        const std::vector<JoinPair> pairs =
            db_->SelfJoin(eps, JoinMethod::kTreeMatch, t, &stats, threads)
                .value();
        ExpectSamePairs(pairs, expected, where);
        EXPECT_EQ(stats.answers, expected_stats.answers) << where;
        EXPECT_EQ(stats.candidates, expected_stats.candidates) << where;
        EXPECT_EQ(stats.verified, expected_stats.verified) << where;
        EXPECT_EQ(stats.nodes_visited, expected_stats.nodes_visited) << where;
        EXPECT_EQ(stats.rect_transforms, expected_stats.rect_transforms)
            << where;
      }
    }
  }
}

TEST_F(EngineTest, TreeMatchJoinEqualsMethodDAndTheScanAsSets) {
  // Cross-validate the tree-match answer set against the paper's
  // method-d join (index-nested-loop), which emits the same ordered pairs
  // in a different sequence, and against the early-abandoning scan,
  // which emits each unordered pair once.
  const double eps = 6.0;
  const auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 8));
  const std::vector<JoinPair> tree =
      db_->SelfJoin(eps, JoinMethod::kTreeMatch, transform).value();
  ASSERT_FALSE(tree.empty()) << "join threshold too selective";

  const auto canonical_order = [](const JoinPair& a, const JoinPair& b) {
    return a.first < b.first ||
           (a.first == b.first && a.second < b.second);
  };
  std::vector<JoinPair> canonical = tree;
  std::vector<JoinPair> method_d =
      db_->SelfJoin(eps, JoinMethod::kIndexTransformed, transform).value();
  std::sort(canonical.begin(), canonical.end(), canonical_order);
  std::sort(method_d.begin(), method_d.end(), canonical_order);
  ExpectSamePairs(canonical, method_d, "canonical vs method d");

  const std::vector<JoinPair> scan =
      db_->SelfJoin(eps, JoinMethod::kScanEarlyAbandon, transform).value();
  EXPECT_EQ(tree.size(), 2 * scan.size());
  EXPECT_EQ(Unordered(tree), Unordered(scan));
}

TEST_F(EngineTest, ConcurrentSingleQueriesKeepTheirOwnStats) {
  // Several threads run one-query batches on one Database at once; each
  // result's stats must equal that query's stats run alone: a query's
  // stats live in its caller's result, in no slot the database shares.
  // The buffer pool holds the whole index, so once warm every run of a
  // query does identical work (disk_reads stays 0).
  const std::vector<BatchQuery> queries = MakeBatch(16);
  std::vector<QueryStats> alone(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(db_->RunBatch({queries[i]}).ok());  // warm the pool
    alone[i] = engine::SingleResult(db_->RunBatch({queries[i]})).value().stats;
    ASSERT_GT(alone[i].nodes_visited, 0u) << "query " << i;
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 8;
  std::vector<std::vector<QueryStats>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < queries.size(); ++j) {
          // Each thread walks the queries from its own offset, so
          // different queries overlap in time.
          const size_t i = (j + t * 5) % queries.size();
          Result<BatchResult> r =
              engine::SingleResult(db_->RunBatch({queries[i]}));
          seen[t].push_back(r.ok() ? r->stats : QueryStats());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), kRounds * queries.size());
    for (size_t n = 0; n < seen[t].size(); ++n) {
      const size_t i = (n % queries.size() + t * 5) % queries.size();
      const QueryStats& got = seen[t][n];
      const std::string where =
          "thread " + std::to_string(t) + " query " + std::to_string(i);
      EXPECT_EQ(got.candidates, alone[i].candidates) << where;
      EXPECT_EQ(got.verified, alone[i].verified) << where;
      EXPECT_EQ(got.answers, alone[i].answers) << where;
      EXPECT_EQ(got.nodes_visited, alone[i].nodes_visited) << where;
      EXPECT_EQ(got.rect_transforms, alone[i].rect_transforms) << where;
      EXPECT_EQ(got.disk_reads, alone[i].disk_reads) << where;
    }
  }
}

TEST_F(EngineTest, BatchTraversalStatsAreExactPerQuery) {
  // Each pool and tree event is counted once, in the counters of the
  // thread that caused it, and the database adds every query's (and
  // every join seed's and probe's) delta to its totals once. So around
  // each query call the StatsSnapshot() deltas of nodes_visited,
  // rect_transforms and pool_disk_reads equal that call's summed
  // QueryStats — at every thread count, over unmerged delta entries,
  // across a Reindex that retires the tree, and for the tree-match and
  // method-c joins.
  const auto expect_counted = [&](const QueryStats& sum,
                                  const DatabaseStats& before,
                                  const std::string& what) {
    const DatabaseStats after = db_->StatsSnapshot();
    EXPECT_GT(sum.nodes_visited, 0u) << what;
    EXPECT_EQ(after.nodes_visited - before.nodes_visited, sum.nodes_visited)
        << what;
    EXPECT_EQ(after.rect_transforms - before.rect_transforms,
              sum.rect_transforms)
        << what;
    EXPECT_EQ(after.pool_disk_reads - before.pool_disk_reads, sum.disk_reads)
        << what;
  };
  const std::vector<BatchQuery> batch = MakeBatch(24);
  const auto run_batch = [&](size_t threads, const std::string& what) {
    const DatabaseStats before = db_->StatsSnapshot();
    BatchStats stats;
    const std::vector<BatchResult> results =
        db_->RunBatch(batch, threads, &stats).value();
    QueryStats sum;
    for (const BatchResult& r : results) {
      ASSERT_TRUE(r.status.ok()) << what;
      sum.Merge(r.stats);
    }
    expect_counted(sum, before, what);
    EXPECT_EQ(stats.aggregate.nodes_visited, sum.nodes_visited) << what;
    EXPECT_EQ(stats.aggregate.rect_transforms, sum.rect_transforms) << what;
    EXPECT_EQ(stats.aggregate.disk_reads, sum.disk_reads) << what;
  };
  const std::optional<FeatureTransform> smoothed =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 8));
  const auto run_join = [&](JoinMethod method, const std::string& what) {
    const DatabaseStats before = db_->StatsSnapshot();
    QueryStats stats;
    ASSERT_TRUE(db_->SelfJoin(4.0, method, smoothed, &stats, 4).ok()) << what;
    expect_counted(stats, before, what);
  };

  for (const size_t threads : kThreadCounts) {
    run_batch(threads, "threads=" + std::to_string(threads));
  }

  // Unmerged inserts: queries and the tree-match join's delta probes
  // read the delta index as well as the tree.
  const std::vector<TimeSeries> late =
      workload::MakeRandomWalkDataset(kSeed + 2, 24, kLength);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (const TimeSeries& s : late) {
    names.push_back("late_" + s.name());
    values.push_back(s.values());
  }
  ASSERT_TRUE(db_->InsertBatch(names, values).ok());
  run_batch(4, "4 drivers over the delta");
  run_join(JoinMethod::kTreeMatch, "tree-match join over the delta");

  // The Reindex retires the tree those counts were made on; the totals
  // keep them, and its own build adds the new tree's page writes.
  const DatabaseStats before_merge = db_->StatsSnapshot();
  ASSERT_TRUE(db_->Reindex().ok());
  const DatabaseStats after_merge = db_->StatsSnapshot();
  EXPECT_GE(after_merge.nodes_visited, before_merge.nodes_visited);
  EXPECT_GT(after_merge.pool_disk_writes, before_merge.pool_disk_writes);
  run_batch(4, "4 drivers after Reindex");
  run_join(JoinMethod::kTreeMatch, "tree-match join after Reindex");
  run_join(JoinMethod::kIndexPlain, "method-c join");
}

TEST_F(EngineTest, PerQueryErrorsDoNotPoisonTheBatch) {
  std::vector<BatchQuery> batch = MakeBatch(6);
  batch[2].query.resize(kLength / 2);  // wrong length
  batch[4].epsilon = -1.0;             // negative threshold

  const std::vector<BatchResult> results = db_->RunBatch(batch, 4).value();
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_TRUE(results[2].status.IsInvalidArgument());
  EXPECT_TRUE(results[4].status.IsInvalidArgument());
  for (const size_t i : {0u, 1u, 3u, 5u}) {
    EXPECT_TRUE(results[i].status.ok()) << "query " << i;
    ExpectSameMatches(results[i].matches, Sequential(batch[i]).value(),
                      "query " + std::to_string(i));
  }
}

TEST_F(EngineTest, RunBatchRequiresIndex) {
  testing::TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "noindex";
  auto db = Database::Create(options).value();
  ASSERT_TRUE(db->Insert("a", data_[0].values()).ok());
  Result<std::vector<BatchResult>> r = db->RunBatch(MakeBatch(2), 2);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace tsq
