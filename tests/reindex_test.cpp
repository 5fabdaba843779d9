// Copyright (c) 2026 The tsq Authors.
//
// The v4 index concurrency contract under test: epoch-published
// snapshots, the delta index, and the merge that folds the delta into a
// fresh main tree while queries keep answering. Covers the DeltaIndex
// watermark/compaction semantics in isolation, delta visibility (a
// series is queryable the moment InsertBatch returns), answer
// preservation across merges, the gated-merge handshake (queries pinned
// to the old epoch finish correctly while the swap publishes, and a
// pinned old snapshot stays valid after it), crash-shaped reopens
// (stale .idx.tmp, relation ahead of the on-disk tree), tree teardown
// that writes no page and syncs nothing, a Create that drops the old
// index of its name, the background merge thread, and a TSan-sized
// ingest+query+merge+stats race, a merge that writes the file a fresh
// build writes without reading a record, and a merge over a corrupt
// published tree. The CI TSan job runs this binary alongside
// concurrency_stress_test.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/database.h"
#include "core/delta_index.h"
#include "core/index_snapshot.h"
#include "core/queries.h"
#include "gtest/gtest.h"
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

constexpr size_t kNumSeries = 80;
constexpr size_t kLength = 64;
constexpr uint64_t kSeed = 20260808;

spatial::Point MakePoint(double a, double b) { return spatial::Point{a, b}; }

// ---------------------------------------------------------------------------
// DeltaIndex in isolation.
// ---------------------------------------------------------------------------

TEST(DeltaIndexTest, WatermarkAdvancesOverOutOfOrderPuts) {
  DeltaIndex delta(/*base=*/10, /*dims=*/2);
  EXPECT_EQ(delta.base(), 10u);
  EXPECT_EQ(delta.visible(), 0u);

  // Out-of-order arrival: the watermark only moves over dense prefixes.
  ASSERT_TRUE(delta.Put(12, MakePoint(12.0, -12.0)).ok());
  EXPECT_EQ(delta.visible(), 0u);
  ASSERT_TRUE(delta.Put(10, MakePoint(10.0, -10.0)).ok());
  EXPECT_EQ(delta.visible(), 1u);
  ASSERT_TRUE(delta.Put(11, MakePoint(11.0, -11.0)).ok());
  EXPECT_EQ(delta.visible(), 3u);

  for (uint64_t slot = 0; slot < 3; ++slot) {
    const double* p = delta.CoordinatesAt(slot);
    EXPECT_EQ(p[0], 10.0 + double(slot));
    EXPECT_EQ(p[1], -10.0 - double(slot));
  }
}

TEST(DeltaIndexTest, PutSpansChunksAndRejectsBadArguments) {
  DeltaIndex delta(/*base=*/0, /*dims=*/1);
  // Straddle the first chunk boundary.
  const uint64_t n = DeltaIndex::kChunkEntries + 5;
  for (uint64_t id = 0; id < n; ++id) {
    ASSERT_TRUE(delta.Put(id, spatial::Point{double(id)}).ok());
  }
  EXPECT_EQ(delta.visible(), n);
  EXPECT_EQ(delta.CoordinatesAt(DeltaIndex::kChunkEntries)[0],
            double(DeltaIndex::kChunkEntries));

  DeltaIndex based(/*base=*/100, /*dims=*/2);
  EXPECT_TRUE(based.Put(99, MakePoint(0, 0)).IsInvalidArgument());
  EXPECT_TRUE(based.Put(100, spatial::Point{1.0}).IsInvalidArgument());
  // One past the fixed capacity: the caller's cue to merge.
  const SeriesId beyond =
      100 + DeltaIndex::kChunkEntries * DeltaIndex::kMaxChunks;
  EXPECT_TRUE(based.Put(beyond, MakePoint(0, 0)).IsOutOfRange());
}

TEST(DeltaIndexTest, CompactKeepsReadySlotsAtOrAboveCutoff) {
  DeltaIndex old(/*base=*/10, /*dims=*/1);
  for (SeriesId id = 10; id < 20; ++id) {
    ASSERT_TRUE(old.Put(id, spatial::Point{double(id)}).ok());
  }
  // An in-flight batch left a gap: 21 ready, 20 missing.
  ASSERT_TRUE(old.Put(21, spatial::Point{21.0}).ok());
  EXPECT_EQ(old.visible(), 10u);

  auto fresh = DeltaIndex::Compact(old, /*cutoff=*/15);
  EXPECT_EQ(fresh->base(), 15u);
  // 15..19 are dense; 21 is ready but 20 is not, so it stays invisible.
  EXPECT_EQ(fresh->visible(), 5u);
  for (uint64_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(fresh->CoordinatesAt(slot)[0], 15.0 + double(slot));
  }
  // The late slot 20 arriving on the fresh delta re-densifies through 21.
  ASSERT_TRUE(fresh->Put(20, spatial::Point{20.0}).ok());
  EXPECT_EQ(fresh->visible(), 7u);
  EXPECT_EQ(fresh->CoordinatesAt(6)[0], 21.0);
}

// ---------------------------------------------------------------------------
// Database-level merge behavior.
// ---------------------------------------------------------------------------

class ReindexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = workload::MakeRandomWalkDataset(kSeed, kNumSeries, kLength);
    CreateIndexingFirstHalf();
  }

  /// Creates the database afresh and indexes the first half; the second
  /// half stays for delta ingest.
  void CreateIndexingFirstHalf() {
    db_ = Database::Create(Options()).value();
    for (size_t i = 0; i < kNumSeries / 2; ++i) {
      ASSERT_TRUE(db_->Insert(data_[i].name(), data_[i].values()).ok());
    }
    ASSERT_TRUE(db_->BuildIndex().ok());
  }

  void TearDown() override { failpoint::ClearAll(); }

  DatabaseOptions Options() const {
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "reindex";
    return options;
  }

  /// Ingests the second half of the dataset (lands in the delta).
  void IngestSecondHalf() {
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (size_t i = kNumSeries / 2; i < kNumSeries; ++i) {
      names.push_back(data_[i].name());
      values.push_back(data_[i].values());
    }
    auto ids = db_->InsertBatch(names, values, /*threads=*/3);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  }

  /// A mixed range/kNN batch over stored series, plain and transformed.
  std::vector<BatchQuery> MakeBatch() const {
    QuerySpec smoothed;
    smoothed.transform =
        FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));
    std::vector<BatchQuery> batch;
    for (size_t i = 0; i < 12; ++i) {
      BatchQuery q;
      q.query = data_[(i * 13) % kNumSeries].values();
      if (i % 2 == 0) {
        q.kind = BatchQueryKind::kRange;
        q.epsilon = (i % 4 == 0) ? 2.0 : 5.0;
      } else {
        q.kind = BatchQueryKind::kKnn;
        q.k = 4;
      }
      if (i % 5 == 3) q.spec = smoothed;
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static void ExpectSameResults(const std::vector<BatchResult>& actual,
                                const std::vector<BatchResult>& expected,
                                const std::string& what) {
    ASSERT_EQ(actual.size(), expected.size()) << what;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(actual[i].status.ok()) << what << " query " << i;
      ASSERT_EQ(actual[i].matches.size(), expected[i].matches.size())
          << what << " query " << i;
      for (size_t m = 0; m < expected[i].matches.size(); ++m) {
        EXPECT_EQ(actual[i].matches[m].id, expected[i].matches[m].id)
            << what << " query " << i << " match " << m;
        EXPECT_EQ(actual[i].matches[m].distance,
                  expected[i].matches[m].distance)
            << what << " query " << i << " match " << m;
      }
    }
  }

  testing::TempDir dir_;
  std::vector<TimeSeries> data_;
  std::unique_ptr<Database> db_;
};

TEST_F(ReindexTest, DeltaIsQueryableTheMomentInsertReturns) {
  IngestSecondHalf();
  // No merge has run: everything past the build sits in the delta.
  const DatabaseStats stats = db_->StatsSnapshot();
  EXPECT_EQ(stats.tree_entries, kNumSeries / 2);
  EXPECT_EQ(stats.delta_entries, kNumSeries - kNumSeries / 2);
  EXPECT_EQ(stats.merges_completed, 0u);

  // Every unmerged series answers an exact-match range query, and kNN
  // sees it as its own nearest neighbor.
  for (size_t i = kNumSeries / 2; i < kNumSeries; ++i) {
    auto matches = Range(db_.get(), data_[i].values(), 1e-9);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty()) << "series " << i;
    EXPECT_EQ((*matches)[0].id, i);
    auto knn = Knn(db_.get(), data_[i].values(), 1);
    ASSERT_TRUE(knn.ok());
    ASSERT_EQ(knn->size(), 1u);
    EXPECT_EQ((*knn)[0].id, i);
    EXPECT_EQ((*knn)[0].distance, 0.0);
  }
}

TEST_F(ReindexTest, MergePreservesAnswersBitIdentically) {
  IngestSecondHalf();
  const std::vector<BatchQuery> batch = MakeBatch();
  const std::vector<BatchResult> before = db_->RunBatch(batch, 2).value();
  auto join_before = db_->SelfJoin(2.0, JoinMethod::kTreeMatch, std::nullopt,
                                   nullptr, 2);
  ASSERT_TRUE(join_before.ok());
  const uint64_t epoch_before = db_->StatsSnapshot().index_epoch;

  auto epoch = db_->Reindex();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_GT(*epoch, epoch_before);

  const DatabaseStats stats = db_->StatsSnapshot();
  EXPECT_EQ(stats.tree_entries, kNumSeries);
  EXPECT_EQ(stats.delta_entries, 0u);
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.index_epoch, *epoch);

  const std::vector<BatchResult> after = db_->RunBatch(batch, 2).value();
  ExpectSameResults(after, before, "post-merge batch");
  auto join_after = db_->SelfJoin(2.0, JoinMethod::kTreeMatch, std::nullopt,
                                  nullptr, 2);
  ASSERT_TRUE(join_after.ok());
  ASSERT_EQ(join_after->size(), join_before->size());
  for (size_t i = 0; i < join_before->size(); ++i) {
    EXPECT_EQ((*join_after)[i].first, (*join_before)[i].first);
    EXPECT_EQ((*join_after)[i].second, (*join_before)[i].second);
    EXPECT_EQ((*join_after)[i].distance, (*join_before)[i].distance);
  }

  // Nothing left to fold: a second reindex is a no-op on the same epoch.
  auto again = db_->Reindex();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *epoch);
  EXPECT_EQ(db_->StatsSnapshot().merges_completed, 1u);
}

TEST_F(ReindexTest, GatedMergeHandshakeKeepsOldEpochAnswering) {
  IngestSecondHalf();
  const std::vector<BatchQuery> batch = MakeBatch();
  const std::vector<BatchResult> baseline = db_->RunBatch(batch, 2).value();

  // Gate the merge between the index-file rename and the epoch publish:
  // the swap is committed on disk but not yet visible to queries.
  std::mutex m;
  std::condition_variable cv;
  bool merge_at_gate = false;
  bool release_merge = false;
  db_->SetMergeHookForTesting([&] {
    std::unique_lock<std::mutex> lock(m);
    merge_at_gate = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_merge; });
  });

  // Pin the pre-merge snapshot the way an in-flight query would.
  auto old_snap = db_->CurrentSnapshot();
  const uint64_t old_epoch = old_snap->epoch;

  std::thread merger([&] {
    auto epoch = db_->Reindex();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return merge_at_gate; });
  }

  // The swap has not published: queries still run on the old epoch and
  // answer the baseline.
  EXPECT_EQ(db_->StatsSnapshot().index_epoch, old_epoch);
  const std::vector<BatchResult> gated = db_->RunBatch(batch, 2).value();
  ExpectSameResults(gated, baseline, "query at the merge gate");

  {
    std::lock_guard<std::mutex> lock(m);
    release_merge = true;
  }
  cv.notify_all();
  merger.join();
  db_->SetMergeHookForTesting(nullptr);

  // Published: new epoch, delta drained, same answers.
  EXPECT_GT(db_->StatsSnapshot().index_epoch, old_epoch);
  EXPECT_EQ(db_->StatsSnapshot().delta_entries, 0u);
  const std::vector<BatchResult> after = db_->RunBatch(batch, 2).value();
  ExpectSameResults(after, baseline, "query after the swap");

  // Grace period: the pinned old snapshot outlives the swap — a query
  // still holding it keeps reading the superseded tree (whose file was
  // renamed over) and gets the exact pre-merge answer.
  const IndexView old_view(*old_snap);
  EXPECT_EQ(old_view.total_series(), kNumSeries);
  for (size_t i = 0; i < kNumSeries; i += 7) {
    std::vector<Match> out;
    QueryStats stats;
    ASSERT_TRUE(IndexRangeQuery(old_view, *db_->relation(),
                                data_[i].values(), 1e-9, QuerySpec{}, &out,
                                &stats)
                    .ok());
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].id, i);
  }
}

TEST_F(ReindexTest, CrashShapedReopensRecover) {
  IngestSecondHalf();
  ASSERT_TRUE(db_->Flush().ok());
  const DatabaseOptions options = Options();

  // Crash before any merge: the on-disk tree covers half, the relation
  // all. Open rebuilds the tail into the delta.
  db_.reset();
  {
    auto reopened = Database::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->size(), kNumSeries);
    const DatabaseStats stats = (*reopened)->StatsSnapshot();
    EXPECT_EQ(stats.tree_entries, kNumSeries / 2);
    EXPECT_EQ(stats.delta_entries, kNumSeries - kNumSeries / 2);
    for (size_t i = 0; i < kNumSeries; i += 9) {
      auto matches = Range(reopened->get(), data_[i].values(), 1e-9);
      ASSERT_TRUE(matches.ok());
      ASSERT_FALSE(matches->empty());
      EXPECT_EQ((*matches)[0].id, i);
    }

    // Crash mid-build: a leftover .idx.tmp must not survive a reopen.
    ASSERT_TRUE((*reopened)->Reindex().ok());
    ASSERT_TRUE((*reopened)->Flush().ok());
  }
  const std::string tmp_path = dir_.path() + "/reindex.idx.tmp";
  { std::ofstream(tmp_path) << "half-built merge junk"; }
  ASSERT_TRUE(std::filesystem::exists(tmp_path));
  {
    auto reopened = Database::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(tmp_path));
    // Crash after the rename: the merged tree covers everything, the
    // delta reopens empty, answers intact.
    const DatabaseStats stats = (*reopened)->StatsSnapshot();
    EXPECT_EQ(stats.tree_entries, kNumSeries);
    EXPECT_EQ(stats.delta_entries, 0u);
    auto matches =
        Range(reopened->get(), data_[kNumSeries - 1].values(), 1e-9);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    EXPECT_EQ((*matches)[0].id, kNumSeries - 1);
  }
}

TEST_F(ReindexTest, RetiringOrClosingAPublishedTreeWritesNoPage) {
  // Every published tree was flushed and synced before it was published
  // and is never written again, so tearing one down writes no page and
  // syncs nothing: neither the last pin of a retired epoch (built by
  // BuildIndex or by Reindex) nor the close of a reopened tree. Counted:
  // page writes on this thread, and traversals of the page file's sync.
  auto syncs = std::make_shared<std::atomic<uint64_t>>(0);
  failpoint::SetCallback("page_file_sync",
                         [syncs](uint64_t) { syncs->fetch_add(1); });
  const auto synced = [&syncs] { return syncs->exchange(0); };

  // The fixture's BuildIndex ran before the count; build it again.
  db_.reset();
  CreateIndexingFirstHalf();
  EXPECT_GE(synced(), 1u) << "BuildIndex";

  testing::IndexDelta written;
  auto built = db_->CurrentSnapshot();
  IngestSecondHalf();
  synced();
  ASSERT_TRUE(db_->Reindex().ok());
  EXPECT_GE(synced(), 1u) << "Reindex";
  written.Reset();
  built.reset();
  EXPECT_EQ(written().disk_writes, 0u) << "retired BuildIndex epoch";
  EXPECT_EQ(synced(), 0u) << "retired BuildIndex epoch";

  auto merged = db_->CurrentSnapshot();
  ASSERT_TRUE(db_->Insert("late", data_[0].values()).ok());
  ASSERT_TRUE(db_->Reindex().ok());
  written.Reset();
  synced();
  merged.reset();
  EXPECT_EQ(written().disk_writes, 0u) << "retired Reindex epoch";
  EXPECT_EQ(synced(), 0u) << "retired Reindex epoch";

  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  written.Reset();
  synced();
  {
    auto reopened = Database::Open(Options());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE((*reopened)->index_built());
  }
  EXPECT_EQ(written().disk_writes, 0u) << "Open followed by a close";
  EXPECT_EQ(synced(), 0u) << "Open followed by a close";
}

TEST(DatabaseCreateTest, CreateOverAnIndexedDatabaseStartsUnindexed) {
  // Create truncates the relation of the same name; an index left from
  // the old relation must not come back on the reopen of the new one.
  testing::TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "stale";
  const auto load = [](Database* db, uint64_t seed, size_t count) {
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (const TimeSeries& s :
         workload::MakeRandomWalkDataset(seed, count, 128)) {
      names.push_back(s.name());
      values.push_back(s.values());
    }
    return db->InsertBatch(names, values).status();
  };
  {
    auto db = Database::Create(options).value();
    ASSERT_TRUE(load(db.get(), 1, 1000).ok());
    ASSERT_TRUE(db->BuildIndex().ok());
  }
  {
    auto db = Database::Create(options).value();
    ASSERT_TRUE(load(db.get(), 2, 2000).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(dir.file("stale.idx")));
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 2000u);
  EXPECT_FALSE((*reopened)->index_built());

  // Indexed afresh, every stored series finds itself at distance 0.
  ASSERT_TRUE((*reopened)->BuildIndex().ok());
  for (const SeriesId id : {SeriesId{5}, SeriesId{1014}}) {
    const RealVec stored = (*reopened)->Get(id).value().values;
    auto knn = Knn(reopened->get(), stored, 1);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ASSERT_EQ(knn->size(), 1u);
    EXPECT_EQ((*knn)[0].id, id);
    EXPECT_EQ((*knn)[0].distance, 0.0);
    auto range = Range(reopened->get(), stored, 0.5);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_FALSE(range->empty()) << "series " << id;
  }
}

TEST(MergeFileTest, MergeWritesTheFreshBuildsBytesAndReadsNoRecord) {
  // A merge packs the published tree's leaf points plus the delta's.
  // STR orders entries by center and id alone, and a delta point equals
  // the one FromStored computes, so the merged file is the file
  // BuildIndex writes over the same series in one go.
  constexpr size_t kBase = 3000;
  constexpr size_t kBatches = 8;
  constexpr size_t kBatch = 256;
  const std::vector<TimeSeries> data = workload::MakeRandomWalkDataset(
      kSeed, kBase + kBatches * kBatch, kLength);
  const auto insert = [&data](Database* db, size_t from, size_t to) {
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (size_t i = from; i < to; ++i) {
      names.push_back(data[i].name());
      values.push_back(data[i].values());
    }
    ASSERT_TRUE(db->InsertBatch(names, values).ok());
  };
  testing::TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();

  options.name = "merged";
  auto merged = Database::Create(options).value();
  insert(merged.get(), 0, kBase);
  ASSERT_TRUE(merged->BuildIndex().ok());
  for (size_t b = 0; b < kBatches; ++b) {
    insert(merged.get(), kBase + b * kBatch, kBase + (b + 1) * kBatch);
  }
  const uint64_t read_before = merged->StatsSnapshot().relation_records_read;
  ASSERT_TRUE(merged->Reindex().ok());
  EXPECT_EQ(merged->StatsSnapshot().relation_records_read, read_before);
  EXPECT_EQ(merged->StatsSnapshot().tree_entries, data.size());

  options.name = "fresh";
  auto fresh = Database::Create(options).value();
  insert(fresh.get(), 0, data.size());
  ASSERT_TRUE(fresh->BuildIndex().ok());

  const std::string merged_bytes =
      testing::ReadFileBytes(dir.file("merged.idx"));
  const std::string fresh_bytes = testing::ReadFileBytes(dir.file("fresh.idx"));
  EXPECT_EQ(merged_bytes.size(), fresh_bytes.size());
  EXPECT_TRUE(merged_bytes == fresh_bytes)
      << "merged.idx differs from a fresh build's file";
}

TEST_F(ReindexTest, MergeOverACorruptTreeRebuildsItFromTheRelation) {
  // Index pages carry no checksum, so the merge checks the leaves it
  // carries forward. A leaf page the decoder rejects makes it warn and
  // take every point from the relation, as BuildIndex does, and the
  // tree it publishes answers every query again.
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  const std::string path = dir_.file("reindex.idx");
  const std::string bytes = testing::ReadFileBytes(path);
  const auto u32_at = [&bytes](size_t offset) {
    uint32_t v = 0;
    for (size_t b = 0; b < 4; ++b) {
      v |= uint32_t{static_cast<uint8_t>(bytes[offset + b])} << (8 * b);
    }
    return v;
  };
  constexpr uint32_t kNodeMagic = 0x4E515354;  // "TSQN", little-endian
  size_t leaf_offset = 0;
  for (size_t offset = 2 * kDefaultPageSize; offset < bytes.size();
       offset += kDefaultPageSize) {
    if (u32_at(offset) == kNodeMagic && u32_at(offset + 4) == 0) {
      leaf_offset = offset;
      break;
    }
  }
  ASSERT_NE(leaf_offset, 0u) << "no leaf page in " << path;
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(leaf_offset));
    file.write("\0\0\0\0", 4);
    ASSERT_TRUE(file.good());
  }

  db_ = Database::Open(Options()).value();
  IngestSecondHalf();
  const uint64_t read_before = db_->StatsSnapshot().relation_records_read;
  const LogLevel level = Logger::GetLevel();
  Logger::SetLevel(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  const Result<uint64_t> epoch = db_->Reindex();
  const std::string log = ::testing::internal::GetCapturedStderr();
  Logger::SetLevel(level);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_NE(log.find("rebuilding them from the relation"), std::string::npos)
      << log;
  EXPECT_GT(db_->StatsSnapshot().relation_records_read, read_before);
  EXPECT_FALSE(db_->degraded());
  EXPECT_EQ(db_->StatsSnapshot().tree_entries, kNumSeries);

  for (size_t i = 0; i < kNumSeries; i += 3) {
    const RealVec& q = data_[i].values();
    for (const double eps : {2.0, 5.0}) {
      auto got = Range(db_.get(), q, eps);
      auto want = testing::Scan(db_.get(), q, eps);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got->size(), want->size()) << "series " << i;
      for (size_t m = 0; m < want->size(); ++m) {
        EXPECT_EQ((*got)[m].id, (*want)[m].id) << "series " << i;
        EXPECT_EQ((*got)[m].distance, (*want)[m].distance) << "series " << i;
      }
    }
    // Brute-force kNN: every record by (squared distance, id), the order
    // the refine ranks by.
    const ComplexVec target = db_->extractor().Extract(q).spectrum;
    std::vector<std::pair<double, SeriesId>> all;
    for (SeriesId id = 0; id < db_->size(); ++id) {
      all.emplace_back(cvec::DistanceSquared(db_->Get(id).value().dft, target),
                       id);
    }
    std::sort(all.begin(), all.end());
    constexpr size_t kK = 4;
    auto knn = Knn(db_.get(), q, kK);
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ASSERT_EQ(knn->size(), kK);
    for (size_t j = 0; j < kK; ++j) {
      EXPECT_EQ((*knn)[j].id, all[j].second) << "series " << i;
      EXPECT_EQ((*knn)[j].distance, std::sqrt(all[j].first))
          << "series " << i;
    }
  }
}

TEST_F(ReindexTest, BackgroundMergeThreadFoldsDelta) {
  // Reopen with the merge thread on a tight cadence.
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  DatabaseOptions options = Options();
  options.merge_interval_ms = 5;
  options.merge_min_delta = 1;
  db_ = Database::Open(options).value();

  IngestSecondHalf();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const DatabaseStats stats = db_->StatsSnapshot();
    if (stats.delta_entries == 0 && stats.merges_completed >= 1 &&
        stats.tree_entries == kNumSeries) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const DatabaseStats stats = db_->StatsSnapshot();
  EXPECT_EQ(stats.delta_entries, 0u);
  EXPECT_EQ(stats.tree_entries, kNumSeries);
  EXPECT_GE(stats.merges_completed, 1u);
  auto matches = Range(db_.get(), data_[kNumSeries - 1].values(), 1e-9);
  ASSERT_TRUE(matches.ok());
  ASSERT_FALSE(matches->empty());
  EXPECT_EQ((*matches)[0].id, kNumSeries - 1);
}

TEST_F(ReindexTest, ReindexRacesIngestAndQueriesSafely) {
  // The v4 headline race, TSan-sized: InsertBatch writers, RunBatch
  // readers and repeated merges all at once. The ingested series are
  // flat with means ~1e6 outside every search rectangle (and a zero
  // normal form sqrt(kLength) away from any unit-variance query), so
  // every reader's answer set provably never changes no matter how much
  // ingest landed or which epoch it pinned.
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < 8; ++i) {
    BatchQuery q;
    q.kind = BatchQueryKind::kRange;
    q.query = data_[(i * 13) % (kNumSeries / 2)].values();
    q.epsilon = (i % 2 == 0) ? 2.0 : 4.0;
    batch.push_back(std::move(q));
  }
  const std::vector<BatchResult> baseline = db_->RunBatch(batch, 2).value();

  constexpr size_t kWriterThreads = 2;
  constexpr size_t kBatchesPerWriter = 3;
  constexpr size_t kBatchRecords = 20;
  constexpr int kReaderReps = 4;
  constexpr int kMerges = 4;

  auto make_far = [](uint64_t seed, size_t count) {
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (size_t i = 0; i < count; ++i) {
      names.push_back("far_" + std::to_string(seed) + "_" +
                      std::to_string(i));
      values.emplace_back(kLength, 1e6 + double(seed * 64 + i));
    }
    return std::make_pair(std::move(names), std::move(values));
  };

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kReaderReps; ++rep) {
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
  for (size_t w = 0; w < kWriterThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        auto [names, values] = make_far(7000 + w * 100 + b, kBatchRecords);
        auto ids = db_->InsertBatch(names, values, /*threads=*/2);
        if (!ids.ok() || ids->size() != kBatchRecords) {
          failed.store(true);
          return;
        }
      }
    });
  }
  std::atomic<bool> merging{true};
  threads.emplace_back([&] {
    for (int i = 0; i < kMerges; ++i) {
      if (!db_->Reindex().ok()) {
        failed.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    merging.store(false);
  });
  // Monitoring races the merges, which fold each retiring tree's
  // counters into the database's totals; one reader never sees the
  // epoch or the merge count go backwards.
  threads.emplace_back([&] {
    DatabaseStats last;
    while (merging.load()) {
      const DatabaseStats stats = db_->StatsSnapshot();
      if (stats.index_epoch < last.index_epoch ||
          stats.merges_completed < last.merges_completed) {
        failed.store(true);
      }
      last = stats;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << "a racing call diverged or failed";

  const uint64_t expected_size =
      kNumSeries / 2 + kWriterThreads * kBatchesPerWriter * kBatchRecords;
  EXPECT_EQ(db_->size(), expected_size);
  ASSERT_TRUE(db_->Reindex().ok());
  EXPECT_EQ(db_->index()->size(), expected_size);
  EXPECT_EQ(db_->StatsSnapshot().delta_entries, 0u);
  const std::vector<BatchResult> after = db_->RunBatch(batch, 2).value();
  ExpectSameResults(after, baseline, "post-race batch");
}

}  // namespace
}  // namespace tsq
