// Copyright (c) 2026 The tsq Authors.

#include "core/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsq {

namespace {

/// Fires a merge-step failpoint: a crash action exits inside Evaluate, a
/// torn action crashes here too (for a non-write step the two are the
/// same), and an error action surfaces as an errno-bearing IOError
/// naming `path`.
Status MergeFailpoint(failpoint::Site* site, const std::string& what,
                      const std::string& path) {
  if (!site->armed()) return Status::OK();
  const failpoint::Decision d = failpoint::Evaluate(site, 0);
  if (d.kind == failpoint::ActionKind::kTornWrite) {
    failpoint::CrashProcess(site->name().c_str());
  }
  if (d.fire()) {
    return failpoint::ErrnoError(d.error_errno != 0 ? d.error_errno : EIO,
                                 what, path);
  }
  return Status::OK();
}

/// fsync(2) of a directory: makes a just-renamed entry durable. Renaming
/// alone only updates the directory in the page cache; a machine crash
/// can undo it until the directory itself is synced.
Status SyncDirectory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return failpoint::ErrnoError(errno, "cannot open directory", path);
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return failpoint::ErrnoError(err, "fsync failed for directory", path);
  }
  return Status::OK();
}

/// The slow-query log's op= for a batch query.
const char* QueryOpName(engine::BatchQueryKind kind) {
  switch (kind) {
    case engine::BatchQueryKind::kRange:
      return "range";
    case engine::BatchQueryKind::kKnn:
      return "knn";
  }
  return "query";
}

/// The slow-query log's op= for a self-join: the method, named as
/// `tsq_cli join --method` names it.
const char* JoinOpName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kScanFull:
      return "join_scan";
    case JoinMethod::kScanEarlyAbandon:
      return "join_scan_fast";
    case JoinMethod::kIndexPlain:
      return "join_index";
    case JoinMethod::kIndexTransformed:
      return "join_index_transform";
    case JoinMethod::kTreeMatch:
      return "join_tree";
  }
  return "join";
}

/// A stored record's index point: FromStored's features, which equal
/// those Insert extracted (core/feature.h), so the point does too.
spatial::Point StoredPoint(const FeatureExtractor& extractor,
                           const SeriesRecord& rec) {
  return extractor.ToPoint(extractor.FromStored(rec.values, rec.dft));
}

/// The index points of ids [0, cutoff) that `snap` already holds, read
/// without touching the relation: its main tree's leaves give
/// [0, main size) and its delta's slots [main size, cutoff). Index pages
/// carry no checksum, so the leaves are checked as far as they can be:
/// Corruption unless the scan succeeds and yields every id below the
/// tree's size exactly once, as a finite point.
Result<std::vector<KIndex::PointEntry>> SnapshotPoints(
    const IndexSnapshot& snap, uint64_t cutoff) {
  const rtree::RStarTree& tree = *snap.main->tree();
  const uint64_t indexed = tree.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const spatial::Rect everywhere(spatial::Point(tree.dims(), -kInf),
                                 spatial::Point(tree.dims(), kInf));
  std::vector<KIndex::PointEntry> points(cutoff);
  uint64_t found = 0;
  Status bad;
  TSQ_RETURN_IF_ERROR(
      tree.Search(everywhere, [&](uint64_t id, const spatial::Rect& rect) {
        if (id >= indexed || !points[id].second.empty() ||
            rect.lo() != rect.hi() ||
            !CheckFinite(rect.lo(), "leaf point").ok()) {
          bad = Status::Corruption("leaf entry " + std::to_string(id) +
                                   " is not the one finite point of an id "
                                   "the tree holds");
          return false;
        }
        points[id] = {id, rect.lo()};
        ++found;
        return true;
      }));
  TSQ_RETURN_IF_ERROR(bad);
  if (found != indexed) {
    return Status::Corruption("tree leaves hold " + std::to_string(found) +
                              " of its " + std::to_string(indexed) +
                              " points");
  }
  const DeltaIndex& delta = *snap.delta;
  TSQ_DCHECK(delta.base() == indexed);
  for (SeriesId id = delta.base(); id < cutoff; ++id) {
    const double* p = delta.CoordinatesAt(id - delta.base());
    points[id] = {id, spatial::Point(p, p + delta.dims())};
  }
  return points;
}

}  // namespace

Database::~Database() { StopMergeThread(); }

void Database::InitSlowQueryLog() {
  if (const char* env = std::getenv("TSQ_SLOW_QUERY_MS")) {
    char* end = nullptr;
    const unsigned long long ms = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      options_.slow_query_ms = static_cast<uint64_t>(ms);
    } else {
      TSQ_LOG(kWarn) << "ignoring unparsable TSQ_SLOW_QUERY_MS='" << env
                     << "'";
    }
  }
  if (options_.slow_query_ms > 0) {
    // The breakdown in the log line comes from the stage timers, so
    // enabling the log arms tracing process-wide. Answers are unaffected
    // (tracing only ever reads clocks); see tests/obs_test.cpp.
    obs::ArmTracing();
    obs::ArmMetrics();
    TSQ_LOG(kInfo) << "slow-query log armed at " << options_.slow_query_ms
                   << "ms";
  }
}

void Database::MaybeLogSlowQuery(const char* op,
                                 const QueryStats& stats) const {
  if (options_.slow_query_ms == 0 ||
      stats.elapsed_ms < static_cast<double>(options_.slow_query_ms)) {
    return;
  }
  // Cold path by construction (the query already burned >= threshold ms).
  // The counter is bumped unconditionally — even when the log level
  // swallows the line — so tests and scrapes can observe the gating
  // without capturing stderr.
  static obs::Counter* slow_queries =
      obs::RegisterCounter("tsq_slow_queries_total");
  slow_queries->Add(1);
  TSQ_LOG(kWarn) << "slow query op=" << op << " elapsed_ms="
                 << stats.elapsed_ms << " prepare_ms=" << stats.prepare_ms
                 << " descent_ms=" << stats.descent_ms
                 << " delta_ms=" << stats.delta_ms
                 << " pool_wait_ms=" << stats.pool_wait_ms
                 << " refine_ms=" << stats.refine_ms
                 << " candidates=" << stats.candidates
                 << " verified=" << stats.verified
                 << " answers=" << stats.answers
                 << " nodes_visited=" << stats.nodes_visited
                 << " disk_reads=" << stats.disk_reads
                 << " records_scanned=" << stats.records_scanned
                 << (stats.traced ? "" : " (untraced)");
}

void Database::StartMergeThread() {
  if (options_.merge_interval_ms == 0) return;
  merge_thread_ = std::thread([this] { MergeThreadMain(); });
}

void Database::StopMergeThread() {
  if (!merge_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(merge_cv_mutex_);
    stop_merge_ = true;
  }
  merge_cv_.notify_all();
  merge_thread_.join();
}

void Database::MergeThreadMain() {
  const auto interval = std::chrono::milliseconds(options_.merge_interval_ms);
  std::unique_lock<std::mutex> lock(merge_cv_mutex_);
  while (!stop_merge_) {
    merge_cv_.wait_for(lock, interval, [this] { return stop_merge_; });
    if (stop_merge_) return;
    lock.unlock();
    auto snap = CurrentSnapshot();
    if (snap != nullptr && !degraded()) {
      const uint64_t unmerged =
          snap->delta->base() + snap->delta->visible() - snap->main->size();
      if (unmerged >= options_.merge_min_delta) {
        if (Result<uint64_t> merged = Reindex(); !merged.ok()) {
          // The previous epoch stays published and correct. A write
          // fault inside Reindex has already degraded the database;
          // anything else retries next tick.
          TSQ_LOG(kWarn) << "background merge failed: "
                         << merged.status().ToString();
        }
      }
    }
    lock.lock();
  }
}

void Database::SetMergeHookForTesting(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(merge_mutex_);
  merge_hook_ = std::move(hook);
}

Result<std::unique_ptr<Database>> Database::Create(
    const DatabaseOptions& options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("database name must be non-empty");
  }
  auto db = std::unique_ptr<Database>(new Database(options));
  TSQ_ASSIGN_OR_RETURN(
      db->relation_,
      Relation::Create(options.directory + "/" + options.name + ".rel",
                       options.relation_segments));
  // A previous incarnation's index describes its relation, not this one;
  // drop it together with any merge scratch.
  std::remove(db->IndexPath().c_str());
  std::remove((db->IndexPath() + ".tmp").c_str());
  db->InitSlowQueryLog();
  db->StartMergeThread();
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("database name must be non-empty");
  }
  auto db = std::unique_ptr<Database>(new Database(options));
  TSQ_ASSIGN_OR_RETURN(
      db->relation_,
      Relation::Open(options.directory + "/" + options.name + ".rel"));
  if (db->relation_->size() == 0) {
    return Status::FailedPrecondition("cannot reopen an empty database");
  }
  TSQ_ASSIGN_OR_RETURN(SeriesRecord first, db->relation_->Get(0));
  db->series_length_.store(first.values.size(), std::memory_order_relaxed);

  const std::string index_path = db->IndexPath();
  // A crash between building <name>.idx.tmp and the atomic rename leaves
  // scratch behind; the canonical index file is still the previous one.
  std::remove((index_path + ".tmp").c_str());
  if (std::FILE* f = std::fopen(index_path.c_str(), "rb")) {
    std::fclose(f);
    std::unique_ptr<KIndex> opened;
    {
      const obs::IndexCounterScope count(&db->index_counters_);
      TSQ_ASSIGN_OR_RETURN(opened, KIndex::Open(db->IndexOptions(index_path),
                                                db->series_length()));
    }
    const uint64_t indexed = opened->size();
    const uint64_t total = db->relation_->size();
    if (indexed > total) {
      return Status::Corruption(
          "index holds " + std::to_string(indexed) +
          " entries but the relation has only " + std::to_string(total));
    }
    // The index may cover a prefix of the relation — the flushed state
    // of a crash between an insert (or merge cutoff) and the next merge.
    // Feature points are a pure function of relation records, so the
    // rebuilt tail answers exactly like the pre-crash delta.
    TSQ_ASSIGN_OR_RETURN(std::shared_ptr<DeltaIndex> delta,
                         db->RebuildDelta(indexed));
    std::lock_guard<std::mutex> put_lock(db->delta_put_mutex_);
    db->Publish(std::move(opened), std::move(delta));
  }
  db->InitSlowQueryLog();
  db->StartMergeThread();
  return db;
}

Status Database::Flush() {
  // At kNone the flush pushes buffered bytes to the OS; at kOnFlush and
  // kPerBatch it is a durability barrier (fdatasync of every segment).
  // The index needs nothing here: every published tree was flushed and
  // synced before it was published, and is never written again.
  Status status = options_.durability == Durability::kNone
                      ? relation_->Flush()
                      : relation_->Sync();
  if (!status.ok()) return EnterReadOnly(std::move(status));
  return Status::OK();
}

DatabaseStats Database::StatsSnapshot() const {
  DatabaseStats out;
  const obs::IndexCounters index = index_counters_.Load();
  out.pool_hits = index.hits;
  out.pool_misses = index.misses;
  out.pool_evictions = index.evictions;
  out.pool_disk_reads = index.disk_reads;
  out.pool_disk_writes = index.disk_writes;
  out.nodes_visited = index.nodes_visited;
  out.rect_transforms = index.rect_transforms;
  out.leaf_entries_tested = index.leaf_entries_tested;
  out.series = relation_->size();
  out.series_length = series_length_.load(std::memory_order_relaxed);
  const RelationStats& rel = relation_->stats();
  out.relation_records_read =
      rel.records_read.load(std::memory_order_relaxed);
  out.relation_bytes_read = rel.bytes_read.load(std::memory_order_relaxed);
  out.relation_bytes_written =
      rel.bytes_written.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_acquire);
  out.write_faults = write_faults_.load(std::memory_order_relaxed);
  out.repairs_completed = repairs_completed_.load(std::memory_order_relaxed);
  const auto snap = CurrentSnapshot();
  if (snap == nullptr) return out;
  const rtree::RStarTree& tree = *snap->main->tree();
  out.index_built = true;
  out.index_epoch = snap->epoch;
  out.delta_entries =
      snap->delta->base() + snap->delta->visible() - tree.size();
  out.merges_completed = merges_completed_.load(std::memory_order_relaxed);
  out.tree_entries = tree.size();
  out.tree_height = tree.height();
  out.tree_dims = tree.dims();
  return out;
}

Status Database::CheckSeriesLength(size_t length) {
  size_t expected = 0;
  if (series_length_.compare_exchange_strong(expected, length,
                                             std::memory_order_relaxed)) {
    return Status::OK();
  }
  if (expected != length) {
    return Status::InvalidArgument(
        "series length " + std::to_string(length) +
        " != database series length " + std::to_string(expected));
  }
  return Status::OK();
}

Status Database::EnterReadOnly(Status cause) {
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (!degraded_.load(std::memory_order_relaxed)) {
      fault_ = cause;
      degraded_.store(true, std::memory_order_release);
      write_faults_.fetch_add(1, std::memory_order_relaxed);
      TSQ_LOG(kWarn) << "write fault, degrading to read-only: "
                     << cause.ToString();
    }
  }
  return cause;
}

Status Database::CheckWritable() const {
  if (!degraded_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(fault_mutex_);
  return Status::ReadOnly("database is read-only after a write fault (" +
                          fault_.ToString() +
                          "); repair once the fault is resolved");
}

Result<SeriesId> Database::Insert(const std::string& name,
                                  const RealVec& values) {
  if (values.empty()) {
    return Status::InvalidArgument("cannot insert an empty series");
  }
  TSQ_RETURN_IF_ERROR(CheckFinite(values, "series"));
  TSQ_RETURN_IF_ERROR(CheckWritable());
  TSQ_RETURN_IF_ERROR(CheckSeriesLength(values.size()));
  const SeriesFeatures features = extractor_.Extract(values);
  const spatial::Point point = extractor_.ToPoint(features);
  TSQ_RETURN_IF_ERROR(CheckFinite(point, "series feature"));
  Result<SeriesId> appended =
      relation_->Append(name, values, features.spectrum);
  if (!appended.ok()) return EnterReadOnly(appended.status());
  const SeriesId id = appended.value();
  if (options_.durability == Durability::kPerBatch) {
    if (Status status = relation_->Sync(); !status.ok()) {
      return EnterReadOnly(std::move(status));
    }
  }
  if (index_built()) {
    if (Status status = DeltaPut(id, point); !status.ok()) {
      return EnterReadOnly(std::move(status));
    }
  }
  return id;
}

Status Database::DeltaPut(SeriesId id, const spatial::Point& point) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(delta_put_mutex_);
      // Reload under the lock: a merge may have compacted the delta
      // since this call started, and Put must target the live one.
      auto snap = CurrentSnapshot();
      Status status = snap->delta->Put(id, point);
      if (status.ok() || status.code() != StatusCode::kOutOfRange) {
        return status;
      }
    }
    if (attempt == 0) {
      // Delta at capacity: fold it into a fresh main tree, then retry on
      // the compacted delta. (Reindex takes merge_mutex_ then
      // delta_put_mutex_, so the put lock must be released first.)
      TSQ_RETURN_IF_ERROR(Reindex().status());
    }
  }
  return Status::OutOfRange("delta index full after merge");
}

Result<std::vector<SeriesId>> Database::InsertBatch(
    const std::vector<std::string>& names, const std::vector<RealVec>& values,
    size_t threads) {
  if (names.size() != values.size()) {
    return Status::InvalidArgument(
        "InsertBatch got " + std::to_string(names.size()) + " names for " +
        std::to_string(values.size()) + " series");
  }
  if (values.empty()) return std::vector<SeriesId>{};
  // Validate the whole batch before assigning any id: a rejected batch
  // must leave the relation untouched (an id, once reserved, cannot be
  // taken back).
  for (const RealVec& v : values) {
    if (v.empty()) {
      return Status::InvalidArgument("cannot insert an empty series");
    }
    if (v.size() != values[0].size()) {
      return Status::InvalidArgument(
          "InsertBatch series lengths disagree: " +
          std::to_string(v.size()) + " vs " +
          std::to_string(values[0].size()));
    }
    TSQ_RETURN_IF_ERROR(CheckFinite(v, "series"));
  }
  TSQ_RETURN_IF_ERROR(CheckWritable());
  TSQ_RETURN_IF_ERROR(CheckSeriesLength(values[0].size()));

  const size_t count = values.size();

  // Phase 1: feature extraction (normal form + DFT) and each series'
  // index point (published by phase 3), work-stolen record-by-record —
  // the CPU-bound half of ingest.
  std::vector<SeriesFeatures> features(count);
  std::vector<spatial::Point> points(count);
  pool_.ParallelFor(
      count,
      [&](size_t i) {
        features[i] = extractor_.Extract(values[i]);
        points[i] = extractor_.ToPoint(features[i]);
      },
      threads);
  // Finite samples can still overflow into non-finite features (a mean
  // of values near DBL_MAX); such a series has no index point either.
  for (const spatial::Point& point : points) {
    TSQ_RETURN_IF_ERROR(CheckFinite(point, "series feature"));
  }

  // Phase 2: per-segment appends. One index per relation segment, each
  // appending its ids in ascending order, so every segment file gets the
  // same bytes at every thread count. Deadlock-free in any queue order
  // (see database.h).
  TSQ_ASSIGN_OR_RETURN(const SeriesId base, relation_->ReserveIds(count));
  const size_t num_segments = relation_->num_segments();
  std::vector<Status> segment_status(num_segments);
  pool_.ParallelFor(
      num_segments,
      [&](size_t s) {
        const uint64_t first_in_segment =
            base + (s + num_segments - base % num_segments) % num_segments;
        Status status;
        for (uint64_t id = first_in_segment; id < base + count && status.ok();
             id += num_segments) {
          const size_t i = static_cast<size_t>(id - base);
          status = relation_->AppendWithId(id, names[i], values[i],
                                           features[i].spectrum);
        }
        segment_status[s] = std::move(status);
      },
      threads);
  for (Status& status : segment_status) {
    if (!status.ok()) return EnterReadOnly(std::move(status));
  }

  // Group commit: one fdatasync per segment covers the whole batch
  // before it is acknowledged.
  if (options_.durability == Durability::kPerBatch) {
    if (Status status = relation_->Sync(); !status.ok()) {
      return EnterReadOnly(std::move(status));
    }
  }

  // Phase 3: publish the batch's feature points into the delta index
  // (when built) in id order. Each put is a slot write under the delta
  // writer mutex — a writer-writer lock; no query waits on it. The
  // series become visible the moment the delta watermark covers them,
  // i.e. before this call returns.
  if (index_built()) {
    for (size_t i = 0; i < count; ++i) {
      if (Status status = DeltaPut(base + i, points[i]); !status.ok()) {
        return EnterReadOnly(std::move(status));
      }
    }
  }

  std::vector<SeriesId> ids(count);
  std::iota(ids.begin(), ids.end(), base);
  return ids;
}

KIndexOptions Database::IndexOptions(const std::string& path) const {
  KIndexOptions kopts;
  kopts.layout = options_.layout;
  kopts.path = path;
  kopts.page_size = options_.page_size;
  kopts.buffer_pool_frames = options_.buffer_pool_frames;
  return kopts;
}

Result<std::vector<KIndex::PointEntry>> Database::StoredPoints(
    uint64_t limit) {
  // One parallel scan per relation segment; ids are dense, so points[id]
  // is each scanner's private slot and the result is in id order with no
  // sorting. Each record shrinks to its point as it is read.
  std::vector<KIndex::PointEntry> points(limit);
  const size_t num_segments = relation_->num_segments();
  std::vector<Status> segment_status(num_segments);
  pool_.ParallelFor(num_segments, [&](size_t s) {
    segment_status[s] =
        relation_->ScanSegment(s, limit, [&](const SeriesRecord& rec) {
          points[rec.id] = {rec.id, StoredPoint(extractor_, rec)};
          return true;
        });
  });
  for (const Status& status : segment_status) {
    TSQ_RETURN_IF_ERROR(status);
  }
  return points;
}

Result<std::shared_ptr<KIndex>> Database::BuildIndexFile(
    std::vector<KIndex::PointEntry> points) {
  // Build into scratch, flush, then atomically rename over the canonical
  // index file. A published tree keeps serving from its open descriptor
  // throughout; a crash anywhere here leaves the previous index file (or
  // none) plus ignorable scratch, or the complete new one.
  const std::string tmp_path = IndexPath() + ".tmp";
  std::remove(tmp_path.c_str());
  // STR packs the tree in one pass, writing each page once. It orders
  // entries by center and id alone, so the same points give the same
  // file whichever path collected them.
  TSQ_ASSIGN_OR_RETURN(
      std::unique_ptr<KIndex> index,
      KIndex::Build(IndexOptions(tmp_path), series_length(),
                    std::move(points)));

  // Publication sequence with its crash points: fsync the complete temp
  // tree, atomically rename it over the canonical file, then fsync the
  // parent directory so the rename itself is durable. A crash before
  // the rename leaves ignorable scratch; after it, the new file — in
  // both cases Open recovers (the reindex_* failpoints let the crash
  // harness stop at each step).
  static failpoint::Site* fp_flush =
      failpoint::Register("reindex_before_flush");
  TSQ_RETURN_IF_ERROR(
      MergeFailpoint(fp_flush, "index build failed before flushing", tmp_path));
  TSQ_RETURN_IF_ERROR(index->Flush());
  static failpoint::Site* fp_rename =
      failpoint::Register("reindex_before_rename");
  TSQ_RETURN_IF_ERROR(MergeFailpoint(
      fp_rename, "index build failed before publishing", tmp_path));
  if (std::rename(tmp_path.c_str(), IndexPath().c_str()) != 0) {
    return failpoint::ErrnoError(errno != 0 ? errno : EIO,
                                 "failed to rename " + tmp_path + " over",
                                 IndexPath());
  }
  static failpoint::Site* fp_post =
      failpoint::Register("reindex_after_rename");
  TSQ_RETURN_IF_ERROR(MergeFailpoint(
      fp_post, "index build failed after publishing", IndexPath()));
  TSQ_RETURN_IF_ERROR(SyncDirectory(options_.directory));
  return std::shared_ptr<KIndex>(std::move(index));
}

Result<std::shared_ptr<DeltaIndex>> Database::RebuildDelta(SeriesId base) {
  auto delta = std::make_shared<DeltaIndex>(base, options_.layout.dims());
  const uint64_t total = relation_->size();
  for (SeriesId id = base; id < total; ++id) {
    TSQ_ASSIGN_OR_RETURN(SeriesRecord rec, relation_->Get(id));
    TSQ_RETURN_IF_ERROR(delta->Put(id, StoredPoint(extractor_, rec)));
  }
  return delta;
}

uint64_t Database::Publish(std::shared_ptr<KIndex> main,
                           std::shared_ptr<DeltaIndex> delta) {
  const auto current = CurrentSnapshot();
  auto next = std::make_shared<IndexSnapshot>();
  next->epoch = current == nullptr ? 1 : current->epoch + 1;
  next->main = std::move(main);
  next->delta = std::move(delta);
  TSQ_DCHECK(next->main->size() == next->delta->base());
  const uint64_t epoch = next->epoch;
  // `current` outlives the lock: a retired epoch whose last pin this was
  // is torn down after the pointer lock is released.
  std::unique_lock<std::shared_mutex> lock(snapshot_ptr_mutex_);
  snapshot_ = std::move(next);
  return epoch;
}

Status Database::BuildIndex() {
  std::lock_guard<std::mutex> merge_lock(merge_mutex_);
  const obs::IndexCounterScope count(&index_counters_);
  TSQ_RETURN_IF_ERROR(CheckWritable());
  const uint64_t total = relation_->size();
  if (total == 0) {
    return Status::FailedPrecondition("BuildIndex on an empty database");
  }
  if (index_built()) {
    return Status::FailedPrecondition("index already built");
  }
  // The first merge: Reindex's build and publication over every stored
  // series, with an empty delta after it. No tree holds their points
  // yet, so they come from the relation.
  TSQ_ASSIGN_OR_RETURN(std::vector<KIndex::PointEntry> points,
                       StoredPoints(total));
  TSQ_ASSIGN_OR_RETURN(std::shared_ptr<KIndex> index,
                       BuildIndexFile(std::move(points)));
  std::lock_guard<std::mutex> put_lock(delta_put_mutex_);
  Publish(std::move(index),
          std::make_shared<DeltaIndex>(total, options_.layout.dims()));
  return Status::OK();
}

Result<uint64_t> Database::Reindex() {
  std::lock_guard<std::mutex> merge_lock(merge_mutex_);
  const obs::IndexCounterScope count(&index_counters_);
  TSQ_RETURN_IF_ERROR(CheckWritable());
  auto snap = CurrentSnapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("Reindex requires BuildIndex()");
  }
  // The merge cutoff: every id the new tree will cover. The delta keeps
  // absorbing puts meanwhile; whatever lands at or above the cutoff
  // survives the swap through compaction below.
  const uint64_t cutoff = snap->delta->base() + snap->delta->visible();
  if (cutoff == snap->main->size()) {
    return snap->epoch;  // nothing to fold
  }
  // The new tree's points are the published tree's plus the delta's, so
  // the merge reads no record. Should the tree not give them back (a
  // corrupt page), the relation still holds every one: scan it as
  // BuildIndex does, which heals the tree.
  Result<std::vector<KIndex::PointEntry>> points =
      SnapshotPoints(*snap, cutoff);
  if (!points.ok()) {
    TSQ_LOG(kWarn) << "merge cannot read the published tree's points ("
                   << points.status().ToString()
                   << "); rebuilding them from the relation";
    points = StoredPoints(cutoff);
    if (!points.ok()) return EnterReadOnly(points.status());
  }
  Result<std::shared_ptr<KIndex>> merged =
      BuildIndexFile(std::move(points).value());
  if (!merged.ok()) return EnterReadOnly(merged.status());
  if (merge_hook_) merge_hook_();

  uint64_t epoch = 0;
  {
    // Swap under the delta writer mutex: compaction and publication are
    // atomic w.r.t. DeltaPut, so no put can land in the old delta after
    // compaction copied it. Only merge_mutex_ holders publish, so `snap`
    // is still the current epoch.
    std::lock_guard<std::mutex> put_lock(delta_put_mutex_);
    epoch = Publish(std::move(merged).value(),
                    DeltaIndex::Compact(*snap->delta, cutoff));
  }
  merges_completed_.fetch_add(1, std::memory_order_relaxed);
  return epoch;
}

Status Database::Repair() {
  std::lock_guard<std::mutex> merge_lock(merge_mutex_);
  const obs::IndexCounterScope count(&index_counters_);
  if (!degraded() && !relation_->poisoned()) return Status::OK();
  // 1. Repair the relation in place: re-walk the segment files, rewind
  // to the largest dense record prefix, lift the append poison. Fails
  // (keeping the degradation) while the fault persists.
  TSQ_RETURN_IF_ERROR(relation_->Repair());
  // 2. Re-cover the relation tail the published index may have missed
  // (a failed delta publication, or records the rewind removed). The
  // published main tree indexes ids [0, main->size()); every one of
  // them was visible before its merge cutoff, so the rewind never
  // truncates below it. Rebuild the delta for [main->size(), total)
  // from relation records — the same tail rebuild Open performs — and
  // publish it as the next epoch.
  if (auto snap = CurrentSnapshot(); snap != nullptr) {
    TSQ_ASSIGN_OR_RETURN(std::shared_ptr<DeltaIndex> delta,
                         RebuildDelta(snap->main->size()));
    // Same two-lock order as the merge swap: no DeltaPut can land in the
    // old delta after the rebuild copied the tail.
    std::lock_guard<std::mutex> put_lock(delta_put_mutex_);
    Publish(snap->main, std::move(delta));
  }
  // 3. A merge may have died mid-build; its scratch is dead weight now.
  std::remove((IndexPath() + ".tmp").c_str());
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    fault_ = Status::OK();
    degraded_.store(false, std::memory_order_release);
  }
  repairs_completed_.fetch_add(1, std::memory_order_relaxed);
  TSQ_LOG(kInfo) << "repair complete, writes resumed (relation size "
                 << relation_->size() << ")";
  return Status::OK();
}

Result<std::vector<engine::BatchResult>> Database::RunBatch(
    const std::vector<engine::BatchQuery>& queries, size_t threads,
    engine::BatchStats* batch_stats) {
  // One snapshot per batch: every query answers from the same epoch,
  // pinned until the batch completes (grace period).
  const auto snap = CurrentSnapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("RunBatch requires BuildIndex()");
  }
  std::vector<engine::BatchResult> results =
      engine::RunBatch(IndexView(*snap), *relation_, queries, &pool_, threads,
                       &index_counters_, batch_stats);
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].status.ok()) {
      MaybeLogSlowQuery(QueryOpName(queries[i].kind), results[i].stats);
    }
  }
  return results;
}

Result<std::vector<JoinPair>> Database::SelfJoin(
    double epsilon, JoinMethod method,
    const std::optional<FeatureTransform>& transform, QueryStats* stats,
    size_t threads) {
  const bool scan = method == JoinMethod::kScanFull ||
                    method == JoinMethod::kScanEarlyAbandon;
  auto snap = CurrentSnapshot();
  if (!scan && snap == nullptr) {
    return Status::FailedPrecondition("index join requires BuildIndex()");
  }
  std::vector<JoinPair> out;
  QueryStats local;
  switch (method) {
    case JoinMethod::kScanFull:
    case JoinMethod::kScanEarlyAbandon:
      TSQ_RETURN_IF_ERROR(SeqScanSelfJoin(
          *relation_, epsilon, transform,
          /*early_abandon=*/method == JoinMethod::kScanEarlyAbandon, &out,
          &local));
      break;
    case JoinMethod::kIndexPlain:
    case JoinMethod::kIndexTransformed: {
      const obs::IndexCounterScope count(&index_counters_);
      TSQ_RETURN_IF_ERROR(IndexSelfJoin(
          IndexView(*snap), *relation_, epsilon,
          method == JoinMethod::kIndexTransformed ? transform : std::nullopt,
          &out, &local));
      break;
    }
    case JoinMethod::kTreeMatch: {
      TSQ_ASSIGN_OR_RETURN(
          out, engine::SelfJoin(IndexView(*snap), *relation_, epsilon,
                                transform, &pool_, threads, &index_counters_,
                                &local));
      break;
    }
    default:
      return Status::InvalidArgument("unknown join method");
  }
  MaybeLogSlowQuery(JoinOpName(method), local);
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace tsq
