// Copyright (c) 2026 The tsq Authors.
//
// Tests for the v2 write contract's core promise: Database::InsertBatch
// assigns dense ids in argument order and produces a byte-identical
// relation directory at every ingest thread count and relative to the
// one-by-one Insert path; plus crash recovery at the Database level (a
// torn tail record is dropped on reopen and the index still opens).

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/database.h"
#include "gtest/gtest.h"
#include "storage/relation.h"
#include "test_util.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::Range;
using testing::RelationBytes;
using testing::TempDir;

constexpr size_t kLength = 16;

/// A small deterministic workload as parallel name/value vectors.
void MakeWorkload(size_t count, std::vector<std::string>* names,
                  std::vector<RealVec>* values) {
  const auto data = workload::MakeRandomWalkDataset(20260729, count, kLength);
  for (const TimeSeries& s : data) {
    names->push_back(s.name());
    values->push_back(s.values());
  }
}

TEST(InsertBatchTest, AssignsDenseIdsInArgumentOrder) {
  TempDir dir;
  std::vector<std::string> names;
  std::vector<RealVec> values;
  MakeWorkload(23, &names, &values);

  DatabaseOptions options;
  options.directory = dir.path();
  options.relation_segments = 4;
  auto db = Database::Create(options).value();
  auto ids = db->InsertBatch(names, values, /*threads=*/4);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ((*ids)[i], i);
    auto rec = db->Get(i);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->name, names[i]);
    EXPECT_EQ(rec->values, values[i]);
  }
  EXPECT_EQ(db->size(), names.size());
  // A second batch continues the dense sequence.
  auto more = db->InsertBatch({"tail"}, {RealVec(kLength, 1.0)});
  ASSERT_TRUE(more.ok());
  EXPECT_EQ((*more)[0], names.size());
}

TEST(InsertBatchTest, ByteIdenticalAcrossThreadCountsAndVsInsert) {
  // The acceptance bar of the v2 write contract: same names+values in,
  // same segment-file bytes out — at 1, 2, 4 and 8 ingest threads, for
  // one and for several segments, and identical to the sequential
  // Insert-by-Insert path.
  std::vector<std::string> names;
  std::vector<RealVec> values;
  MakeWorkload(41, &names, &values);

  for (const size_t segments : {1u, 4u}) {
    TempDir dir;
    // Ground truth: one-by-one Insert.
    DatabaseOptions options;
    options.directory = dir.path();
    options.relation_segments = segments;
    options.name = "seq";
    auto seq_db = Database::Create(options).value();
    for (size_t i = 0; i < names.size(); ++i) {
      ASSERT_TRUE(seq_db->Insert(names[i], values[i]).ok());
    }
    const std::string expected = RelationBytes(seq_db.get());

    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      DatabaseOptions batch_options;
      batch_options.directory = dir.path();
      batch_options.relation_segments = segments;
      batch_options.name = "b" + std::to_string(threads);
      auto db = Database::Create(batch_options).value();
      auto ids = db->InsertBatch(names, values, threads);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(RelationBytes(db.get()), expected)
          << "segments=" << segments << " threads=" << threads;
      // Scan order (the dense-id semantics) is bit-identical too.
      std::vector<std::string> scanned;
      ASSERT_TRUE(db->relation()
                      ->Scan([&scanned](const SeriesRecord& rec) {
                        scanned.push_back(rec.name);
                        return true;
                      })
                      .ok());
      EXPECT_EQ(scanned, names);
    }
  }
}

TEST(InsertBatchTest, RejectsBadBatchesWithoutSideEffects) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  auto db = Database::Create(options).value();

  EXPECT_TRUE(db->InsertBatch({"a", "b"}, {RealVec(kLength, 1.0)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db->InsertBatch({"a"}, {RealVec{}}).status().IsInvalidArgument());
  EXPECT_TRUE(db->InsertBatch({"a", "b"},
                              {RealVec(kLength, 1.0), RealVec(kLength + 1, 1.0)})
                  .status()
                  .IsInvalidArgument());
  RealVec nan_series(kLength, 1.0);
  nan_series[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(db->InsertBatch({"a", "b"}, {RealVec(kLength, 1.0), nan_series})
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(db->size(), 0u);
  EXPECT_EQ(db->series_length(), 0u);
  // An empty batch is a no-op, not an error.
  auto empty = db->InsertBatch({}, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  // A good batch still lands on the untouched database.
  ASSERT_TRUE(db->InsertBatch({"a"}, {RealVec(kLength, 1.0)}).ok());
  EXPECT_EQ(db->size(), 1u);
  // The single-series path refuses non-finite samples, and finite ones
  // whose features overflow, the same way.
  RealVec inf_series(kLength, 1.0);
  inf_series[0] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(db->Insert("inf", inf_series).status().IsInvalidArgument());
  EXPECT_TRUE(
      db->Insert("huge", RealVec(kLength, 1e308)).status().IsInvalidArgument());
  EXPECT_EQ(db->size(), 1u);
  // A later batch of the wrong length is rejected against the fixed one.
  EXPECT_TRUE(db->InsertBatch({"b"}, {RealVec(kLength + 2, 1.0)})
                  .status()
                  .IsInvalidArgument());
}

TEST(InsertBatchTest, NonFiniteRecordOnDiskFailsIndexingInsteadOfAborting) {
  // A record that bypassed insert validation (written straight through
  // the relation, as a build without it could have) has no index point:
  // BuildIndex, and the reopen that rebuilds an unindexed tail into the
  // delta, must return an error rather than abort on a NaN rectangle.
  std::vector<std::string> names;
  std::vector<RealVec> values;
  MakeWorkload(20, &names, &values);
  RealVec bad = values[0];
  bad[5] = std::numeric_limits<double>::quiet_NaN();
  const FeatureExtractor extractor(DatabaseOptions{}.layout);
  for (const bool index_first : {false, true}) {
    TempDir dir;
    DatabaseOptions options;
    options.directory = dir.path();
    {
      auto db = Database::Create(options).value();
      ASSERT_TRUE(db->InsertBatch(names, values).ok());
      if (index_first) {
        ASSERT_TRUE(db->BuildIndex().ok());
      }
      ASSERT_TRUE(db->relation()
                      ->Append("legacy", bad, extractor.Extract(bad).spectrum)
                      .ok());
      if (!index_first) {
        EXPECT_TRUE(db->BuildIndex().IsInvalidArgument());
        // The failed build published nothing: no index file appeared.
        EXPECT_FALSE(std::filesystem::exists(dir.file("tsq.idx")));
        EXPECT_FALSE(db->index_built());
      }
      ASSERT_TRUE(db->Flush().ok());
    }
    if (index_first) {
      EXPECT_TRUE(Database::Open(options).status().IsInvalidArgument());
    } else {
      auto reopened = Database::Open(options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_FALSE((*reopened)->index_built());
    }
  }
}

TEST(InsertBatchTest, IndexedBatchMatchesIncrementalInserts) {
  // With the index built, InsertBatch folds the batch into the tree; the
  // database must answer exactly like one grown by individual Inserts.
  std::vector<std::string> names;
  std::vector<RealVec> values;
  MakeWorkload(30, &names, &values);

  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "inc";
  auto inc_db = Database::Create(options).value();
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(inc_db->Insert(names[i], values[i]).ok());
  }
  ASSERT_TRUE(inc_db->BuildIndex().ok());
  for (size_t i = 10; i < names.size(); ++i) {
    ASSERT_TRUE(inc_db->Insert(names[i], values[i]).ok());
  }

  DatabaseOptions batch_options;
  batch_options.directory = dir.path();
  batch_options.name = "bat";
  auto batch_db = Database::Create(batch_options).value();
  ASSERT_TRUE(batch_db
                  ->InsertBatch({names.begin(), names.begin() + 10},
                                {values.begin(), values.begin() + 10})
                  .ok());
  ASSERT_TRUE(batch_db->BuildIndex().ok());
  ASSERT_TRUE(batch_db
                  ->InsertBatch({names.begin() + 10, names.end()},
                                {values.begin() + 10, values.end()},
                                /*threads=*/4)
                  .ok());

  ASSERT_EQ(batch_db->index()->size(), inc_db->index()->size());
  for (size_t i = 0; i < names.size(); i += 3) {
    auto expected = Range(inc_db.get(), values[i], 2.0);
    auto actual = Range(batch_db.get(), values[i], 2.0);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(actual->size(), expected->size()) << "query " << i;
    for (size_t m = 0; m < expected->size(); ++m) {
      EXPECT_EQ((*actual)[m].id, (*expected)[m].id);
      EXPECT_EQ((*actual)[m].distance, (*expected)[m].distance);
    }
  }
}

TEST(DatabaseRecoveryTest, TornTailRecordIsDroppedAndIndexReopens) {
  // Crash story: a database with a built index accepts one more append,
  // which tears mid-record (crash between write and index persist). On
  // reopen the torn record is dropped, the relation shrinks back to what
  // the on-disk index covers, and the database opens cleanly.
  std::vector<std::string> names;
  std::vector<RealVec> values;
  MakeWorkload(14, &names, &values);

  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "crashy";
  {
    auto db = Database::Create(options).value();
    ASSERT_TRUE(db->InsertBatch(names, values).ok());
    ASSERT_TRUE(db->BuildIndex().ok());
    ASSERT_TRUE(db->Flush().ok());
  }

  // The "crashing appender": writes straight to the relation (the index
  // never hears of it), then the record is torn by truncation.
  const std::string rel_path = dir.path() + "/crashy.rel";
  const size_t torn_id = names.size();
  {
    auto rel = Relation::Open(rel_path).value();
    ASSERT_EQ(rel->size(), names.size());
    ASSERT_TRUE(rel->Append("torn", RealVec(kLength, 0.5),
                            ComplexVec(kLength))
                    .ok());
    ASSERT_TRUE(rel->Flush().ok());
  }
  // Before the tear: index (N entries) vs relation (N+1) is the
  // crash-between-swap shape, not corruption — Open rebuilds the tail
  // into the delta and serves it (docs/ARCHITECTURE.md).
  {
    auto recovered = Database::Open(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->size(), names.size() + 1);
    EXPECT_EQ((*recovered)->StatsSnapshot().delta_entries, 1u);
    EXPECT_EQ((*recovered)->Get(torn_id).value().name, "torn");
  }

  const std::string torn_segment =
      rel_path + "." + std::to_string(torn_id % 4);
  const uint64_t size = std::filesystem::file_size(torn_segment);
  ASSERT_GT(size, 6u);
  std::filesystem::resize_file(torn_segment, size - 6);

  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), names.size());
  ASSERT_TRUE((*reopened)->index_built());
  EXPECT_EQ((*reopened)->index()->size(), names.size());
  // All surviving ids are intact and queryable through the index.
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ((*reopened)->Get(i).value().name, names[i]);
  }
  auto matches = Range(reopened->get(), values[0], 0.001);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].id, 0u);
}

TEST(DatabaseRecoveryTest, ReopenedDatabaseContinuesDenseIngest) {
  std::vector<std::string> names;
  std::vector<RealVec> values;
  MakeWorkload(9, &names, &values);

  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.relation_segments = 3;
  {
    auto db = Database::Create(options).value();
    ASSERT_TRUE(db->InsertBatch(names, values, /*threads=*/2).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->relation()->num_segments(), 3u);
  auto more = (*db)->InsertBatch({"x", "y"}, {RealVec(kLength, 2.0),
                                              RealVec(kLength, 3.0)});
  ASSERT_TRUE(more.ok());
  EXPECT_EQ((*more)[0], names.size());
  EXPECT_EQ((*more)[1], names.size() + 1);
  EXPECT_EQ((*db)->size(), names.size() + 2);
}

}  // namespace
}  // namespace tsq
