// Copyright (c) 2026 The tsq Authors.
//
// Concurrency stress suite for the v3 read contract and the v2 write
// contract: many threads hammering mixed batch workloads (and parallel
// self-joins) against one Database — every call sharing its one thread
// pool, at equal and at mixed thread caps — while writers append to a
// separate relation AND ingest into the queried database itself
// (InsertBatch racing RunBatch, the v2 write contract's headline
// race). Under v3 the hammered index fetches ride the lock-free
// optimistic hit path and misses read with the pool mutex dropped, so
// these races double as a seqlock memory-model workout; under v2 the
// ingest side exercises the per-segment append turnstile and the
// lock-free record directory.
// Asserts that every concurrent result is bit-identical to the
// sequential path and that the exact per-query stat counters lose
// nothing (their sum equals the shared engine counters' delta). Sized to
// stay fast under ThreadSanitizer; the CI TSan job runs this binary (and
// buffer_pool_concurrency_test, the pool-targeted suite) to pin the
// memory model down.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "engine/query_engine.h"
#include "gtest/gtest.h"
#include "storage/relation.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using engine::BatchQuery;
using engine::BatchQueryKind;
using engine::BatchResult;
using testing::Knn;
using testing::Range;

constexpr size_t kNumSeries = 120;
constexpr size_t kLength = 64;
constexpr uint64_t kSeed = 20260801;
constexpr size_t kHammerThreads = 4;
constexpr int kRepsPerThread = 3;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = workload::MakeRandomWalkDataset(kSeed, kNumSeries, kLength);
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "stress";
    // Small pool: eviction traffic races the lock-free hits all the
    // time, which is exactly the churn the stress wants.
    options.buffer_pool_frames = 64;
    db_ = Database::Create(options).value();
    for (const TimeSeries& s : data_) {
      ASSERT_TRUE(db_->Insert(s.name(), s.values()).ok());
    }
    ASSERT_TRUE(db_->BuildIndex().ok());
  }

  /// A mixed, seeded workload (stored + perturbed queries, plain and
  /// transformed specs, range and kNN).
  std::vector<BatchQuery> MakeBatch(size_t count) const {
    Rng rng(kSeed + 7);
    QuerySpec smoothed;
    smoothed.transform =
        FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));
    std::vector<BatchQuery> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      BatchQuery q;
      RealVec values = data_[(i * 17) % kNumSeries].values();
      if (i % 3 == 1) {
        for (double& v : values) v += rng.Uniform(-0.5, 0.5);
      }
      q.query = std::move(values);
      if (i % 4 == 2) {
        q.kind = BatchQueryKind::kKnn;
        q.k = 1 + i % 5;
      } else {
        q.kind = BatchQueryKind::kRange;
        q.epsilon = (i % 2 == 0) ? 2.0 : 6.0;
      }
      if (i % 5 == 3) q.spec = smoothed;
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static void ExpectSameMatches(const std::vector<Match>& actual,
                                const std::vector<Match>& expected,
                                const std::string& what) {
    ASSERT_EQ(actual.size(), expected.size()) << what;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << what << " at " << i;
      EXPECT_EQ(actual[i].distance, expected[i].distance)
          << what << " at " << i;
    }
  }

  testing::TempDir dir_;
  std::vector<TimeSeries> data_;
  std::unique_ptr<Database> db_;
};

TEST_F(ConcurrencyStressTest, HammeredBatchesMatchSequentialExactly) {
  const std::vector<BatchQuery> batch = MakeBatch(24);

  // Sequential ground truth: one-query batches, each run on this thread.
  std::vector<std::vector<Match>> expected;
  for (const BatchQuery& q : batch) {
    expected.push_back(q.kind == BatchQueryKind::kKnn
                           ? Knn(db_.get(), q.query, q.k, q.spec).value()
                           : Range(db_.get(), q.query, q.epsilon, q.spec)
                                 .value());
  }

  // One shared pool, hammered from kHammerThreads caller threads at
  // once (RunBatch is documented thread-safe).
  std::vector<std::vector<std::vector<BatchResult>>> runs(kHammerThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kHammerThreads);
    for (size_t t = 0; t < kHammerThreads; ++t) {
      threads.emplace_back([this, &batch, &runs, t] {
        for (int rep = 0; rep < kRepsPerThread; ++rep) {
          runs[t].push_back(db_->RunBatch(batch, 4).value());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  for (size_t t = 0; t < kHammerThreads; ++t) {
    ASSERT_EQ(runs[t].size(), static_cast<size_t>(kRepsPerThread));
    for (int rep = 0; rep < kRepsPerThread; ++rep) {
      const std::vector<BatchResult>& results = runs[t][rep];
      ASSERT_EQ(results.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(results[i].status.ok())
            << "thread " << t << " rep " << rep << " query " << i << ": "
            << results[i].status.ToString();
        ExpectSameMatches(results[i].matches, expected[i],
                          "thread " + std::to_string(t) + " rep " +
                              std::to_string(rep) + " query " +
                              std::to_string(i));
      }
    }
  }
}

TEST_F(ConcurrencyStressTest, ConcurrentDatabaseRunBatchAtMixedThreadCounts) {
  // Database::RunBatch from several threads at once, each with a
  // *different* thread cap over the one shared pool: every answer must
  // still equal the sequential one.
  const std::vector<BatchQuery> batch = MakeBatch(12);
  std::vector<std::vector<Match>> expected;
  for (const BatchQuery& q : batch) {
    expected.push_back(q.kind == BatchQueryKind::kKnn
                           ? Knn(db_.get(), q.query, q.k, q.spec).value()
                           : Range(db_.get(), q.query, q.epsilon, q.spec)
                                 .value());
  }

  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  std::atomic<bool> failed{false};
  for (size_t t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t cap = 1 + t % 4;  // 1, 2, 3, 4 drivers
      for (int rep = 0; rep < kRepsPerThread; ++rep) {
        Result<std::vector<BatchResult>> results = db_->RunBatch(batch, cap);
        if (!results.ok() || results->size() != batch.size()) {
          failed.store(true);
          return;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          if (!(*results)[i].status.ok() ||
              (*results)[i].matches.size() != expected[i].size()) {
            failed.store(true);
            return;
          }
          for (size_t m = 0; m < expected[i].size(); ++m) {
            if ((*results)[i].matches[m].id != expected[i][m].id ||
                (*results)[i].matches[m].distance !=
                    expected[i][m].distance) {
              failed.store(true);
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load())
      << "a concurrent Database::RunBatch diverged or failed";
}

TEST_F(ConcurrencyStressTest, NoStatCounterLossUnderConcurrency) {
  // The exact-stats contract, raced: every traversal counts only in the
  // counters of its own thread and the database adds each query's delta
  // to its totals, so the per-query stats must add up to the
  // StatsSnapshot() delta with nothing lost or double-counted — even
  // while kHammerThreads batches interleave on one pool.
  const std::vector<BatchQuery> batch = MakeBatch(16);
  const DatabaseStats before = db_->StatsSnapshot();

  std::atomic<uint64_t> nodes{0}, transforms{0}, reads{0};
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (size_t t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kRepsPerThread; ++rep) {
        const std::vector<BatchResult> results =
            db_->RunBatch(batch, 4).value();
        for (const BatchResult& r : results) {
          ASSERT_TRUE(r.status.ok()) << r.status.ToString();
          nodes.fetch_add(r.stats.nodes_visited);
          transforms.fetch_add(r.stats.rect_transforms);
          reads.fetch_add(r.stats.disk_reads);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const DatabaseStats after = db_->StatsSnapshot();
  EXPECT_GT(nodes.load(), 0u);
  EXPECT_EQ(nodes.load(), after.nodes_visited - before.nodes_visited);
  EXPECT_EQ(transforms.load(), after.rect_transforms - before.rect_transforms);
  EXPECT_EQ(reads.load(), after.pool_disk_reads - before.pool_disk_reads);
}

TEST_F(ConcurrencyStressTest, BatchesAndSelfJoinsRaceAWriterSafely) {
  // Readers hammer the frozen index stack (batches + parallel self-joins)
  // while a writer appends to a *separate* relation and a tail reader
  // follows it — the full v2 story in one race: shared pool, parallel
  // descent, thread-safe PageFile, pread-based relation reads.
  const std::vector<BatchQuery> batch = MakeBatch(12);
  const double join_eps = 5.0;
  const auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));

  const std::vector<JoinPair> join_baseline =
      db_->SelfJoin(join_eps, JoinMethod::kTreeMatch, transform, nullptr, 1)
          .value();
  const std::vector<BatchResult> batch_baseline =
      db_->RunBatch(batch, 1).value();

  constexpr size_t kWriterRecords = 150;
  auto side_relation =
      Relation::Create(dir_.file("writer_side.rel")).value();

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  // Two batch hammers.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kRepsPerThread; ++rep) {
        const std::vector<BatchResult> results =
            db_->RunBatch(batch, 4).value();
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].status.ok() ||
              results[i].matches.size() !=
                  batch_baseline[i].matches.size()) {
            failed.store(true);
            return;
          }
          for (size_t m = 0; m < results[i].matches.size(); ++m) {
            if (results[i].matches[m].id !=
                    batch_baseline[i].matches[m].id ||
                results[i].matches[m].distance !=
                    batch_baseline[i].matches[m].distance) {
              failed.store(true);
              return;
            }
          }
        }
      }
    });
  }

  // One self-join hammer (shares the database's pool with the batches).
  threads.emplace_back([&] {
    for (int rep = 0; rep < kRepsPerThread; ++rep) {
      Result<std::vector<JoinPair>> pairs = db_->SelfJoin(
          join_eps, JoinMethod::kTreeMatch, transform, nullptr, 4);
      if (!pairs.ok() || pairs->size() != join_baseline.size()) {
        failed.store(true);
        return;
      }
      for (size_t i = 0; i < pairs->size(); ++i) {
        if ((*pairs)[i].first != join_baseline[i].first ||
            (*pairs)[i].second != join_baseline[i].second ||
            (*pairs)[i].distance != join_baseline[i].distance) {
          failed.store(true);
          return;
        }
      }
    }
  });

  // The writer: appends to its own relation (single appender, per the
  // Relation contract).
  threads.emplace_back([&] {
    for (size_t i = 0; i < kWriterRecords; ++i) {
      const RealVec values = {static_cast<double>(i), 1.0, 2.0};
      const ComplexVec dft = {Complex(static_cast<double>(i), 0.0)};
      Result<SeriesId> id =
          side_relation->Append("w" + std::to_string(i), values, dft);
      if (!id.ok() || *id != i) {
        failed.store(true);
        return;
      }
    }
  });

  // The tail reader: chases the writer with lock-free pread Gets.
  threads.emplace_back([&] {
    uint64_t seen = 0;
    while (seen < kWriterRecords && !failed.load()) {
      const uint64_t size = side_relation->size();
      for (; seen < size; ++seen) {
        Result<SeriesRecord> rec = side_relation->Get(seen);
        if (!rec.ok() || rec->values.empty() ||
            rec->values[0] != static_cast<double>(seen)) {
          failed.store(true);
          return;
        }
      }
      std::this_thread::yield();
    }
  });

  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load()) << "a concurrent result diverged from the "
                                 "sequential baseline (see thread bodies)";

  EXPECT_EQ(side_relation->size(), kWriterRecords);
  Result<SeriesRecord> last = side_relation->Get(kWriterRecords - 1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->name, "w" + std::to_string(kWriterRecords - 1));
}

TEST_F(ConcurrencyStressTest, InsertBatchRacesRunBatchSafely) {
  // The v2 write contract's headline race: concurrent InsertBatch calls
  // (and single Inserts) ingesting into the queried database while
  // RunBatch callers hammer it. The ingested series are flat: a flat
  // series' normal form is the zero vector, whose distance to any
  // unit-variance query normal form is exactly sqrt(kLength) = 8 — above
  // every epsilon used here under the shift/scale-invariant similarity —
  // and its mean sits ~1e6 outside every search rectangle. So each
  // query's answer set is unchanged no matter how much of the ingest has
  // landed: the range results must stay bit-identical to the pre-ingest
  // baseline throughout, and afterwards the relation, directory and
  // index must agree. (Range-only workload: a kNN's k-th neighbor has no
  // such separation margin.)
  QuerySpec smoothed;
  smoothed.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < 12; ++i) {
    BatchQuery q;
    q.kind = BatchQueryKind::kRange;
    q.query = data_[(i * 17) % kNumSeries].values();
    q.epsilon = (i % 2 == 0) ? 2.0 : 4.0;
    if (i % 5 == 3) q.spec = smoothed;
    batch.push_back(std::move(q));
  }
  const std::vector<BatchResult> baseline = db_->RunBatch(batch, 2).value();

  constexpr size_t kWriterThreads = 2;
  constexpr size_t kBatchesPerWriter = 2;
  constexpr size_t kBatchRecords = 25;
  constexpr size_t kSingleInserts = 20;

  // Flat far-mean ingest workload, pre-generated per writer batch.
  auto make_far = [](uint64_t seed, size_t count) {
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (size_t i = 0; i < count; ++i) {
      names.push_back("far_" + std::to_string(seed) + "_" +
                      std::to_string(i));
      values.emplace_back(kLength,
                          1e6 + static_cast<double>(seed * 64 + i));
    }
    return std::make_pair(std::move(names), std::move(values));
  };

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  // Readers: RunBatch must keep answering exactly the baseline.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kRepsPerThread; ++rep) {
        Result<std::vector<BatchResult>> results = db_->RunBatch(batch, 2);
        if (!results.ok() || results->size() != batch.size()) {
          failed.store(true);
          return;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          if (!(*results)[i].status.ok() ||
              (*results)[i].matches.size() != baseline[i].matches.size()) {
            failed.store(true);
            return;
          }
          for (size_t m = 0; m < baseline[i].matches.size(); ++m) {
            if ((*results)[i].matches[m].id != baseline[i].matches[m].id ||
                (*results)[i].matches[m].distance !=
                    baseline[i].matches[m].distance) {
              failed.store(true);
              return;
            }
          }
        }
      }
    });
  }

  // Batch writers: concurrent InsertBatch calls sharing the one pool.
  for (size_t w = 0; w < kWriterThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        auto [names, values] =
            make_far(9000 + w * 100 + b, kBatchRecords);
        Result<std::vector<SeriesId>> ids =
            db_->InsertBatch(names, values, /*threads=*/2);
        if (!ids.ok() || ids->size() != kBatchRecords) {
          failed.store(true);
          return;
        }
      }
    });
  }

  // One single-Insert writer interleaving with the batches.
  threads.emplace_back([&] {
    auto [names, values] = make_far(9999, kSingleInserts);
    for (size_t i = 0; i < kSingleInserts; ++i) {
      if (!db_->Insert(names[i], values[i]).ok()) {
        failed.store(true);
        return;
      }
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << "a racing call diverged or failed";

  const uint64_t expected_size = kNumSeries +
                                 kWriterThreads * kBatchesPerWriter *
                                     kBatchRecords +
                                 kSingleInserts;
  EXPECT_EQ(db_->size(), expected_size);
  // Ingested entries land in the delta until a merge folds them in.
  DatabaseStats stats = db_->StatsSnapshot();
  EXPECT_EQ(stats.tree_entries + stats.delta_entries, expected_size);
  ASSERT_TRUE(db_->Reindex().ok());
  EXPECT_EQ(db_->index()->size(), expected_size);
  EXPECT_EQ(db_->StatsSnapshot().delta_entries, 0u);
  // Every ingested record is readable and the dense-id directory intact.
  for (uint64_t id = 0; id < expected_size; ++id) {
    ASSERT_TRUE(db_->relation()->Get(id).ok()) << "id " << id;
  }
  // Queries after the dust settles still answer the baseline.
  const std::vector<BatchResult> after = db_->RunBatch(batch, 2).value();
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(after[i].status.ok());
    ExpectSameMatches(after[i].matches, baseline[i].matches,
                      "post-ingest query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace tsq
