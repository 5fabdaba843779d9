// Copyright (c) 2026 The tsq Authors.
//
// The tsq public facade: a small time-series database with similarity
// queries under safe transformations. Wraps the sequence Relation
// (segmented heap store), the KIndex (R*-tree over DFT features) and the
// query processors behind one object.
//
// Typical use:
//
//   DatabaseOptions options;
//   options.directory = "/tmp/stocks";
//   auto db = Database::Create(options).value();
//   db->InsertBatch(names, values).value();  // parallel ingest
//   db->BuildIndex();
//   QuerySpec spec;
//   spec.transform =
//       FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
//   // A single query is a one-element batch, run on the calling thread.
//   auto one = engine::SingleResult(
//       db->RunBatch({engine::BatchQuery::Range(q, /*epsilon=*/2.0, spec)}));
//   // one->matches are the answers, one->stats this query's QueryStats.
//   auto pairs = db->SelfJoin(/*epsilon=*/2.0, JoinMethod::kTreeMatch,
//                             spec.transform).value();

#ifndef TSQ_CORE_DATABASE_H_
#define TSQ_CORE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/index_snapshot.h"
#include "core/k_index.h"
#include "core/queries.h"
#include "core/seq_scan.h"
#include "engine/query_engine.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"
#include "storage/relation.h"

namespace tsq {

/// How a self-join is executed (Table 1's four methods).
enum class JoinMethod {
  kScanFull,          ///< (a) full scan-scan, no early abandoning
  kScanEarlyAbandon,  ///< (b) scan-scan, abandon at eps
  kIndexPlain,        ///< (c) index join, transformation ignored
  kIndexTransformed,  ///< (d) index join through the transformed index
  /// tsq extension: one synchronized tree-against-itself traversal instead
  /// of one range query per record, run in parallel by the batch engine
  /// (see engine::SelfJoin).
  kTreeMatch,
};

/// When an acknowledged write must have reached stable storage. The
/// levels trade ingest latency for crash-loss exposure; see
/// docs/ARCHITECTURE.md ("Durability & degradation contract").
enum class Durability {
  /// Writes land in the OS page cache only. A process crash loses
  /// nothing (the cache survives); a machine crash may lose recently
  /// acknowledged series. The default, and the pre-durability behavior.
  kNone = 0,
  /// Flush() additionally fdatasyncs every relation segment, so an
  /// explicit flush is a full durability barrier. (A published index
  /// file is synced before it is published, at every level.)
  kOnFlush = 1,
  /// Group commit: every Insert/InsertBatch fdatasyncs the relation
  /// segments it touched before acknowledging — one fdatasync per
  /// segment per batch, amortized over the batch. Flush() is a barrier
  /// here too.
  kPerBatch = 2,
};

/// Database construction parameters.
struct DatabaseOptions {
  /// Directory for the backing files (must exist).
  std::string directory = ".";
  /// Base name: files are <directory>/<name>.rel.0..N-1 and <name>.idx.
  std::string name = "tsq";
  /// Feature space of the index; the paper's 6-D polar layout by default.
  FeatureLayout layout = FeatureLayout::Paper();
  size_t page_size = kDefaultPageSize;
  size_t buffer_pool_frames = 1024;
  /// Relation segment files — the parallel ingest lanes (see Relation).
  /// Open rediscovers the count from disk; this applies to Create only.
  size_t relation_segments = 4;
  /// Background merge cadence in milliseconds: when non-zero, a merge
  /// thread periodically folds the delta index into a fresh main tree
  /// (see Reindex). 0 (the default) disables the thread; merges then
  /// happen only through explicit Reindex calls or when the delta fills
  /// up. See docs/ARCHITECTURE.md ("Operating the merge thread").
  uint64_t merge_interval_ms = 0;
  /// The background merge thread folds only when at least this many
  /// unmerged delta entries are visible (avoids churning full rebuilds
  /// for a trickle of inserts).
  uint64_t merge_min_delta = 1;
  /// When an acknowledged write is on stable storage (see Durability).
  Durability durability = Durability::kNone;
  /// Slow-query log threshold in milliseconds; 0 (the default) disables
  /// it. When enabled, per-query stage tracing is armed at Create/Open
  /// and every query whose elapsed time reaches the threshold emits one
  /// structured WARN line with its stage self-time breakdown (and bumps
  /// the tsq_slow_queries_total counter). The TSQ_SLOW_QUERY_MS
  /// environment variable, when set, overrides this value at Create/Open.
  uint64_t slow_query_ms = 0;
};

/// One snapshot of the database's counters: relation scan/IO, buffer-pool
/// cache behaviour, R*-tree traversal work and tree geometry, flattened
/// into a plain struct — what the tsqd STATS verb serializes. Counters
/// are cumulative since Create/Open. The pool and traversal counters are
/// the database's own totals: every Database call that touches the index
/// (Open, BuildIndex, each RunBatch query, SelfJoin's index methods,
/// Reindex, Repair) adds the index events it caused, counted once per
/// event in thread-local counters (obs/trace.h). No counter lives on a
/// tree, so none goes backwards when a merge retires one. Work done
/// directly on index() or CurrentSnapshot() bypasses the database and is
/// not counted here (a relation()->ResetStats() does reset the relation
/// counters).
struct DatabaseStats {
  uint64_t series = 0;         ///< stored series (dense prefix)
  uint64_t series_length = 0;  ///< common length (0 before first insert)
  bool index_built = false;
  // Relation counters (RelationStats).
  uint64_t relation_records_read = 0;
  uint64_t relation_bytes_read = 0;
  uint64_t relation_bytes_written = 0;
  // Index buffer-pool counters; zero before the index is opened or built.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_disk_reads = 0;
  uint64_t pool_disk_writes = 0;  ///< index pages built: one per page
  // R*-tree traversal counters; zero before the index is opened or built.
  uint64_t nodes_visited = 0;
  uint64_t rect_transforms = 0;
  uint64_t leaf_entries_tested = 0;
  // Tree geometry; zero without an index.
  uint64_t tree_entries = 0;
  uint64_t tree_height = 0;
  uint64_t tree_dims = 0;
  // Epoch-published index state (v4); zero without an index.
  uint64_t index_epoch = 0;       ///< published snapshot epoch (1 = built)
  uint64_t delta_entries = 0;     ///< visible delta entries not yet merged
  uint64_t merges_completed = 0;  ///< successful Reindex/merge passes
  // Degradation state (v5): a write fault turns the database read-only
  // until Repair() succeeds; queries keep serving throughout.
  bool degraded = false;           ///< writes currently rejected (kReadOnly)
  uint64_t write_faults = 0;       ///< write faults that entered degradation
  uint64_t repairs_completed = 0;  ///< successful Repair() passes
};

/// A similarity-searchable collection of equal-length time series.
///
/// Concurrency contract (v2 write half + v3 read half + v4 index
/// publication; docs/ARCHITECTURE.md is the consolidated reference).
///
/// Threads: a Database owns one ThreadPool, sized to the hardware
/// concurrency, built at Create/Open and destroyed before the relation
/// and the snapshot it serves. Every parallel step runs on it — RunBatch,
/// the kTreeMatch join, InsertBatch's extraction and appends,
/// BuildIndex's segment scans — and so does tsqd. A `threads`
/// argument creates no thread: it caps how many threads drive one call
/// (the caller is always one of them; 0 = the pool size). Every call may
/// be made from inside a pool task, because ThreadPool::ParallelFor
/// never waits on a queued task.
///
/// Writes: Insert and InsertBatch may be called from any number of
/// threads at once, and concurrently with RunBatch/SelfJoin.
/// Record ingest is wait-free for readers — appends go to per-segment
/// files behind a lock-free id directory (see Relation), so queries and
/// scans never block on ingest I/O. InsertBatch assigns dense ids in
/// argument order no matter the thread count; the resulting relation
/// files are byte-identical at any concurrency. When the index is built,
/// each insert call also publishes its series' feature point into the
/// delta index (DeltaIndex): a short slot write under the delta writer
/// mutex — a writer-writer lock that no query path ever takes. A series
/// is queryable the moment its insert call returns. BuildIndex requires
/// exclusivity with every other call and refuses to run twice; one
/// parallel scan per relation segment turns each record into its index
/// point for the STR bulk load.
///
/// Why concurrent appends cannot deadlock, whatever the pool's queue
/// order: an append of id m waits only on lower ids of m's segment (the
/// relation's per-segment turnstile). Each reserved id range belongs to
/// one Insert or InsertBatch call, and that call's caller is a running
/// thread that claims segment tasks until none is left, so it can finish
/// its whole batch alone; helpers only take tasks off it. Take the lowest
/// unfinished id m: every lower id is done, so if m's segment task is
/// claimed it is appending m, and if not, the caller of m's batch is
/// still claiming and reaches it — its other segment tasks wait only on
/// ids below its batch, all done. So the lowest unfinished id always
/// progresses (induction on reservation order).
///
/// Reads never block on writes: there is no reader-writer lock anywhere
/// on the query path. Every query loads the current IndexSnapshot (one
/// atomic acquire), pins it with its shared_ptr, and runs entirely
/// against that frozen view — the immutable main R*-tree plus the delta
/// range visible at load. A concurrent merge publishes a successor epoch
/// without touching the pinned one; the refcount is the grace period
/// that keeps the old tree alive until the last in-flight query drops
/// it.
///
/// Queries: RunBatch (range/kNN) and SelfJoin are the whole query
/// surface. A single query is a one-element batch: RunBatch({q}) runs it
/// on the calling thread (one index, one driver: no task is queued), and
/// its answers, status and QueryStats land in results[0] —
/// engine::SingleResult unwraps them. Larger batches and the kTreeMatch
/// join spread over the pool; concurrent queries share the index's v3
/// buffer pool (lock-free cached fetches, misses that read with its mutex
/// dropped). No query takes a Database-wide mutex. Every call reports its
/// stats into storage its caller owns (results[i].stats, SelfJoin's
/// `stats`), so any number of threads may query one Database at once
/// and each query's stats are exactly its own.
///
/// Merging: Reindex (or the background merge thread, see
/// DatabaseOptions::merge_interval_ms) STR-bulk-loads a fresh tree over
/// every merged-plus-visible-delta id from points the published snapshot
/// already holds (the main tree's leaves and the delta's slots; no
/// record is read), persists it to <name>.idx.tmp, atomically renames it
/// over <name>.idx, and swaps the epoch pointer; the delta is compacted
/// to the entries the new tree does not cover. BuildIndex is the first
/// merge: the same build and publication over every stored series, with
/// points from the relation. So every published tree is on
/// disk before it is published and is never written again. A crash at
/// any point leaves a reopenable database: Open accepts an index that
/// covers a prefix of the relation and rebuilds the missing tail into
/// the delta.
///
/// Faults: a write fault (failed append, failed delta publication,
/// failed merge) degrades the database to read-only — writes return
/// kReadOnly while queries keep serving the last published state, which
/// covers exactly the acknowledged writes. Repair() recovers in place
/// once the fault is resolved. See docs/ARCHITECTURE.md ("Durability &
/// degradation contract").
class Database {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(Database);
  /// Stops the background merge thread (when running) before teardown.
  ~Database();

  /// Creates a fresh database: truncates the relation files of the same
  /// name and removes its index file and merge scratch, so the new
  /// database starts unindexed.
  static Result<std::unique_ptr<Database>> Create(
      const DatabaseOptions& options);

  /// Reopens an existing database: the relation directory is rebuilt from
  /// the segment files (recovered in parallel; a torn tail record is
  /// dropped, see Relation::Open) and, when an index file exists and
  /// `options` matches its layout, the index is reopened too. Requires at
  /// least one stored series (an empty database has no recoverable
  /// state).
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);

  /// Appends a series. The first insert fixes the series length; later
  /// inserts must match it. When the index is built, the series' feature
  /// point lands in the delta index before the call returns, so it is
  /// immediately queryable. Safe from any number of threads, and
  /// concurrently with RunBatch/SelfJoin and merges.
  Result<SeriesId> Insert(const std::string& name, const RealVec& values);

  /// Appends many series at once: names[i] with values[i] gets id
  /// base + i, in argument order, deterministically at every thread
  /// count. Feature extraction (normal form + DFT) is spread over the
  /// pool record-by-record and the appends one task per relation segment,
  /// each with at most `threads` drivers (the caller included; 0 = the
  /// pool size). The whole batch is validated before any id is assigned,
  /// so a rejected batch leaves the database untouched. Safe from any
  /// number of threads, from inside a pool task, and concurrently with
  /// RunBatch/SelfJoin. Returns the assigned ids (base .. base+n-1).
  Result<std::vector<SeriesId>> InsertBatch(
      const std::vector<std::string>& names,
      const std::vector<RealVec>& values, size_t threads = 0);

  /// Builds the k-index over everything inserted so far and publishes it
  /// as epoch 1: the first merge, written, flushed, renamed over
  /// <name>.idx and made durable exactly as Reindex does (STR bulk
  /// load), from points one parallel scan per relation segment computes
  /// from the stored records.
  /// Requires at least one series and exclusivity (no concurrent inserts
  /// or queries); refuses to run twice. Errors are returned without
  /// degrading the database. One before the rename leaves no <name>.idx;
  /// one after it leaves the complete tree there, which Open serves.
  Status BuildIndex();

  /// True once BuildIndex has succeeded.
  bool index_built() const { return CurrentSnapshot() != nullptr; }

  /// The currently published index snapshot, or null before BuildIndex.
  /// Holding the returned shared_ptr pins the epoch: a concurrent merge
  /// publishes successors without invalidating it — this is the
  /// grace-period handle in-flight queries ride on. Copies the handle
  /// under the shared side of a pointer lock held for a refcount bump
  /// only; no index work ever happens under it. Exposed for white-box
  /// tests and tools.
  std::shared_ptr<const IndexSnapshot> CurrentSnapshot() const {
    std::shared_lock<std::shared_mutex> lock(snapshot_ptr_mutex_);
    return snapshot_;
  }

  /// Folds the visible delta into a fresh main R*-tree and publishes the
  /// next epoch: STR-bulk-load the pinned snapshot's points (the main
  /// tree's leaves plus the delta's slots below the cutoff; no record is
  /// read) into <name>.idx.tmp, flush, atomic rename over <name>.idx,
  /// directory fsync, swap the snapshot pointer with the delta compacted
  /// to what the new tree does not cover. Leaves that fail their checks
  /// make the merge warn and take the points from the relation, as
  /// BuildIndex does; index pages carry no checksum, so a corrupt
  /// coordinate the page decoder accepts is carried forward (see
  /// docs/ARCHITECTURE.md, "The merge"). In-flight queries keep their
  /// pinned epoch; new queries see the merged tree. Returns the published
  /// epoch (the current one when there was nothing to merge). A failed
  /// merge degrades the database (see EnterReadOnly). Serialized against
  /// other merges and BuildIndex; safe concurrently with inserts and
  /// queries.
  Result<uint64_t> Reindex();

  /// Number of stored series / their common length (0 before first insert).
  uint64_t size() const { return relation_->size(); }
  size_t series_length() const {
    return series_length_.load(std::memory_order_relaxed);
  }

  /// The range/kNN query call: executes the batch on the pool with at
  /// most `threads` drivers (the caller included; 0 = the pool size) — a
  /// one-query batch on the caller — and requires BuildIndex. results[i]
  /// answers queries[i] with its own status (a malformed query fails
  /// alone) and exact QueryStats; the answer vectors are identical for
  /// any thread count. `batch_stats` (optional) sums the per-query stats
  /// and times the batch. Safe from any number of threads, concurrently
  /// with Insert/InsertBatch (see the class contract).
  Result<std::vector<engine::BatchResult>> RunBatch(
      const std::vector<engine::BatchQuery>& queries, size_t threads = 0,
      engine::BatchStats* batch_stats = nullptr);

  /// The self-join call: all pairs within `epsilon` by the chosen
  /// method, this join's stats written to `stats` when non-null. Index
  /// methods require BuildIndex. Scan methods emit unordered pairs; index
  /// methods emit ordered pairs (each unordered pair twice), matching
  /// Table 1. kTreeMatch runs the engine's parallel join on the pool with
  /// at most `threads` drivers (0 = the pool size), the same pairs in the
  /// same order at every thread count; the other methods run on the
  /// caller and ignore `threads`. Safe from any number of threads.
  Result<std::vector<JoinPair>> SelfJoin(
      double epsilon, JoinMethod method,
      const std::optional<FeatureTransform>& transform,
      QueryStats* stats = nullptr, size_t threads = 0);

  /// Reads one stored record back.
  Result<SeriesRecord> Get(SeriesId id) { return relation_->Get(id); }

  /// Flushes the relation to disk so Open can recover it. The index needs
  /// no flush: BuildIndex and Reindex write each tree out before they
  /// publish it. Unmerged delta entries are not persisted as index state
  /// — Open rebuilds them from the relation tail (the delta is always
  /// derivable from relation records). At Durability::kOnFlush and above
  /// this is a full barrier: every acknowledged record has been
  /// fdatasynced when Flush returns.
  Status Flush();

  /// True while the database is read-only after a write fault: writes
  /// return kReadOnly, queries keep serving the last published state.
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Recovers from a write fault and lifts the read-only degradation:
  /// repairs the relation in place (re-walks the segment files and
  /// rewinds to the largest dense record prefix, see Relation::Repair),
  /// rebuilds the delta index over any relation tail the published
  /// index no longer covers (the same tail rebuild Open performs),
  /// publishes the result as the next epoch, removes stale merge
  /// scratch, and clears the degraded flag so writes resume. Requires
  /// no concurrent writers (they are being rejected with kReadOnly
  /// anyway); queries may continue throughout. Fails — and stays
  /// degraded — while the underlying fault persists. A no-op when the
  /// database is healthy.
  Status Repair();

  /// Reads the relation, buffer-pool and traversal counters (plus tree
  /// geometry) into one DatabaseStats; the counters are relaxed atomics,
  /// read without a lock. Safe from any thread, concurrently with queries
  /// and inserts; each counter is an atomic snapshot (the set is not
  /// mutually consistent under concurrent load, which monitoring does not
  /// need).
  DatabaseStats StatsSnapshot() const;

  /// Underlying components, exposed for benchmarks and white-box tests.
  /// index() is the currently published snapshot's main tree (null
  /// before BuildIndex); the raw pointer stays valid only until a merge
  /// publishes a successor epoch — callers that merge concurrently must
  /// pin CurrentSnapshot() instead.
  Relation* relation() { return relation_.get(); }
  KIndex* index() {
    auto snap = CurrentSnapshot();
    return snap == nullptr ? nullptr : snap->main.get();
  }
  const FeatureExtractor& extractor() const { return extractor_; }
  const DatabaseOptions& options() const { return options_; }
  /// The pool every parallel step of this database runs on; tsqd submits
  /// its requests here too.
  engine::ThreadPool* thread_pool() { return &pool_; }

  /// Test-only: invoked during Reindex after the merged tree is built
  /// and renamed over the index file, immediately before the new epoch
  /// is published — the gate race tests use to pin queries on the old
  /// epoch while a swap is in flight. Set only while no merge runs.
  void SetMergeHookForTesting(std::function<void()> hook);

 private:
  explicit Database(DatabaseOptions options)
      : options_(std::move(options)), extractor_(options_.layout) {}

  /// Claims or checks the common series length. Thread-safe.
  Status CheckSeriesLength(size_t length);

  /// Applies the TSQ_SLOW_QUERY_MS override and arms stage tracing when
  /// the slow-query log is enabled. Run once per Create/Open.
  void InitSlowQueryLog();

  /// Emits the slow-query line (and bumps the counter) when `stats`
  /// crossed the configured threshold. `op` names what ran: the batch
  /// query's kind or the join method. Cold path: one branch per query
  /// when the log is disabled.
  void MaybeLogSlowQuery(const char* op, const QueryStats& stats) const;

  /// Records a write fault and enters read-only degradation: later
  /// writes return kReadOnly until Repair() succeeds. Returns `cause`
  /// unchanged so the faulting caller reports the real error. Queries
  /// are deliberately NOT gated on this state — the published snapshot
  /// and the relation's dense prefix cover exactly the acknowledged
  /// writes, so they stay correct to serve. (A failed merge leaves the
  /// previous epoch published and correct, but still degrades: the
  /// disk is evidently unhealthy and accepting more writes would only
  /// widen the unmerged tail.)
  Status EnterReadOnly(Status cause);

  /// OK when writes are admitted; kReadOnly (naming the original
  /// fault) while degraded.
  Status CheckWritable() const;

  /// Publishes one series' feature point into the current delta under
  /// the writer mutex; on a full delta, merges and retries once.
  Status DeltaPut(SeriesId id, const spatial::Point& point);

  /// The one way an index file is written: KIndex::Build packs `points`
  /// by STR into <name>.idx.tmp, each page written once, then this syncs
  /// the file (KIndex::Flush), renames it over <name>.idx and fsyncs the
  /// directory. BuildIndex passes StoredPoints, Reindex
  /// the published snapshot's points. The reindex_* failpoints stop it
  /// before the flush, before the rename and after it.
  Result<std::shared_ptr<KIndex>> BuildIndexFile(
      std::vector<KIndex::PointEntry> points);

  /// The index points of relation ids [0, limit), points[id] holding id's:
  /// one parallel scan per relation segment turns each record into its
  /// point as it reads it.
  Result<std::vector<KIndex::PointEntry>> StoredPoints(uint64_t limit);

  /// The delta over relation ids [base, size()), rebuilt from the stored
  /// records: Open's and Repair's tail rebuild.
  Result<std::shared_ptr<DeltaIndex>> RebuildDelta(SeriesId base);

  /// Publishes `main` + `delta` as the next epoch (current + 1, or 1 when
  /// none is published) and returns it. Requires main->size() ==
  /// delta->base(). The caller holds delta_put_mutex_, so no DeltaPut
  /// lands in a delta that is being replaced.
  uint64_t Publish(std::shared_ptr<KIndex> main,
                   std::shared_ptr<DeltaIndex> delta);

  /// KIndexOptions for the tree file at `path`, from options_.
  KIndexOptions IndexOptions(const std::string& path) const;

  std::string IndexPath() const {
    return options_.directory + "/" + options_.name + ".idx";
  }

  void StartMergeThread();
  void StopMergeThread();
  void MergeThreadMain();

  DatabaseOptions options_;
  FeatureExtractor extractor_;
  std::unique_ptr<Relation> relation_;
  // The epoch pointer: queries copy it once (a shared_ptr refcount
  // bump under the shared side of the pointer lock) and pin the
  // snapshot; Publish installs successors under the exclusive side, held
  // for a pointer assignment only — never during merge I/O or tree
  // builds. The snapshot itself is never mutated in place.
  mutable std::shared_mutex snapshot_ptr_mutex_;
  std::shared_ptr<const IndexSnapshot> snapshot_;
  std::atomic<size_t> series_length_{0};
  // Writer-writer mutex over the delta index: serializes DeltaPut calls
  // with each other and with the snapshot swap's delta compaction. No
  // query path ever takes it.
  std::mutex delta_put_mutex_;
  // Serializes BuildIndex, Reindex (including the background thread) and
  // Repair — at most one index (re)build or publication runs at a time.
  // Lock order: merge_mutex_ before delta_put_mutex_.
  std::mutex merge_mutex_;
  std::atomic<uint64_t> merges_completed_{0};
  // Pool and traversal totals over every index this database served:
  // each call that touches the index adds its thread's counter delta
  // (see DatabaseStats).
  obs::IndexCounterTotals index_counters_;
  std::function<void()> merge_hook_;  // test-only, see setter
  // Background merge thread (started when merge_interval_ms > 0).
  std::thread merge_thread_;
  std::mutex merge_cv_mutex_;
  std::condition_variable merge_cv_;
  bool stop_merge_ = false;  // guarded by merge_cv_mutex_
  // Degradation state: set by EnterReadOnly, cleared by Repair.
  std::atomic<bool> degraded_{false};
  mutable std::mutex fault_mutex_;  // guards fault_
  Status fault_;                    // the write fault that degraded us
  std::atomic<uint64_t> write_faults_{0};
  std::atomic<uint64_t> repairs_completed_{0};
  // Declared last, so destroyed first: its tasks may use everything
  // above. 0 = one worker per hardware thread.
  engine::ThreadPool pool_{0};
};

}  // namespace tsq

#endif  // TSQ_CORE_DATABASE_H_
