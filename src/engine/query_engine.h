// Copyright (c) 2026 The tsq Authors.
//
// The concurrent batch query engine: executes batches of range, kNN and
// subsequence queries — plus a parallel partitioned self-join — against an
// epoch-published index snapshot + Relation (and optionally a
// SubsequenceIndex) on a fixed thread pool.
//
// Execution model. The engine acquires one IndexSnapshot per operation
// through its snapshot loader (an acquire load of the database's epoch
// pointer) and pins it for the operation's whole lifetime, so a batch
// runs against a single frozen view — the main R*-tree plus the delta
// range visible at acquisition — no matter how many merges publish new
// epochs meanwhile; the shared_ptr pin is the grace period that keeps the
// old tree alive until the last in-flight operation drops it. Every query
// is a reentrant composition of the Algorithm 2 steps in core/queries.h,
// so workers share the tree, buffer pool and relation without copying
// them. (The legacy constructor over a bare KIndex pointer still treats
// the index as externally frozen.) Under the v3 pool,
// workers touching cached index pages never synchronize at all — a hit is
// an optimistic lock-free pin — and a worker's cache miss reads from disk
// without blocking same-shard hits by the others, so the only cross-
// worker contention left in the read path is frame claim/eviction on
// concurrent misses. Batches are executed with work stealing over an
// atomic cursor (ThreadPool::ParallelFor); each query writes into its own
// pre-allocated result slot, so results[i] always corresponds to
// queries[i] and the answer vectors are bit-identical for any thread
// count (each query's computation is sequential and self-contained).
//
// Stats (v3: exact, lock-free included). Every per-query counter —
// including the traversal fields nodes_visited, rect_transforms and
// disk_reads — is exact under any concurrency: a query runs entirely on
// one thread, and the tree and buffer pool mirror their shared atomic
// counters into thread-local ones (rtree::ThisThreadTraversalCounters,
// ThisThreadPoolCounters), so a query's before/after delta on its own
// thread can never include a neighbour query's work. The v3 pool
// classifies each fetch as hit or miss exactly once no matter how many
// optimistic retries or load-waits it goes through, so the deltas stay
// exact on the lock-free path too. BatchStats::aggregate is simply the
// sum of the per-query stats. The parallel self-join tallies each
// worker's thread-local deltas the same way, so its QueryStats are exact
// even while other batches run on the engine.

#ifndef TSQ_ENGINE_QUERY_ENGINE_H_
#define TSQ_ENGINE_QUERY_ENGINE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/index_snapshot.h"
#include "core/k_index.h"
#include "core/queries.h"
#include "core/subsequence.h"
#include "engine/thread_pool.h"
#include "storage/relation.h"

namespace tsq {
namespace engine {

/// Engine construction parameters.
struct QueryEngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency.
  size_t threads = 0;
};

/// What one batch entry asks for.
enum class BatchQueryKind {
  kRange,        ///< Algorithm 2 range query (needs the KIndex)
  kKnn,          ///< optimal multi-step kNN (needs the KIndex)
  kSubsequence,  ///< [FRM94] subsequence range search (needs the ST-index)
};

/// One query of a batch.
struct BatchQuery {
  BatchQueryKind kind = BatchQueryKind::kRange;
  RealVec query;
  double epsilon = 0.0;  ///< range / subsequence threshold
  size_t k = 0;          ///< kNN answer count
  QuerySpec spec;        ///< transform/mode/window (range and kNN)
  KnnOptions knn;        ///< kNN approximation knobs (default = exact)

  /// One query of each kind, the fields it does not use left default.
  static BatchQuery Range(RealVec query, double epsilon,
                          QuerySpec spec = {}) {
    BatchQuery q;
    q.query = std::move(query);
    q.epsilon = epsilon;
    q.spec = std::move(spec);
    return q;
  }
  static BatchQuery Knn(RealVec query, size_t k, QuerySpec spec = {},
                        KnnOptions knn = {}) {
    BatchQuery q;
    q.kind = BatchQueryKind::kKnn;
    q.query = std::move(query);
    q.k = k;
    q.spec = std::move(spec);
    q.knn = knn;
    return q;
  }
  static BatchQuery Subsequence(RealVec query, double epsilon) {
    BatchQuery q;
    q.kind = BatchQueryKind::kSubsequence;
    q.query = std::move(query);
    q.epsilon = epsilon;
    return q;
  }
};

/// One query's outcome. `status` is per-query: a malformed query fails
/// alone without aborting its batch.
struct BatchResult {
  Status status;
  std::vector<Match> matches;  ///< range/kNN answers
  std::vector<SubsequenceMatch> subsequence_matches;
  QueryStats stats;
};

/// Unwraps a single query — a one-element batch, run in process by
/// Database::RunBatch or remotely by server::Client: the batch's own
/// error, Corruption unless it carries exactly one result, else that
/// result with its status as the Result's.
Result<BatchResult> SingleResult(Result<std::vector<BatchResult>> results);

/// A whole batch's outcome.
struct BatchStats {
  /// Sum of every per-query stats; exact (see header comment).
  QueryStats aggregate;
  /// Wall-clock time of the batch, parallelism included.
  double wall_ms = 0.0;
};

/// Loads the current index snapshot; returns null when no index is
/// built yet. Must be callable from any thread (an atomic load).
using SnapshotLoader =
    std::function<std::shared_ptr<const IndexSnapshot>()>;

/// Concurrent executor over an epoch-published index + relation pair.
/// Thread-safe: RunBatch/SelfJoin may be called from several threads at
/// once, sharing the pool.
class QueryEngine {
 public:
  /// Epoch-published engine: each operation loads the loader's current
  /// snapshot and runs entirely against it, safely concurrent with
  /// ingest and merges. `loader` must not be null (it may return null
  /// while no index exists); `relation` must not be null;
  /// `subsequence_index` may be null when the engine only serves
  /// whole-series queries.
  QueryEngine(SnapshotLoader loader, const Relation* relation,
              const SubsequenceIndex* subsequence_index = nullptr,
              const QueryEngineOptions& options = {});

  /// Legacy frozen-index engine (tests, tools): `index` may be null when
  /// the engine only serves subsequence queries; it must not be mutated
  /// while the engine runs. `relation` must not be null.
  QueryEngine(const KIndex* index, const Relation* relation,
              const SubsequenceIndex* subsequence_index = nullptr,
              const QueryEngineOptions& options = {});

  TSQ_DISALLOW_COPY_AND_MOVE(QueryEngine);

  /// Number of worker threads.
  size_t threads() const { return pool_.size(); }

  /// Executes every query of the batch on the pool. results[i] answers
  /// queries[i]; identical output for any thread count. `batch_stats` is
  /// optional.
  std::vector<BatchResult> RunBatch(const std::vector<BatchQuery>& queries,
                                    BatchStats* batch_stats = nullptr);

  /// Fully parallel self-join. Phase 1 splits the synchronized R*-tree
  /// descent itself across the workers: the qualifying root-child pairs
  /// (rtree::RStarTree::JoinSeeds) are independent descent tasks, each
  /// worker collects candidates into a per-seed buffer, and the buffers
  /// are concatenated in seed order — exactly the sequential JoinWith
  /// candidate sequence. Phase 2 fetches+transforms every referenced
  /// record exactly once into a shared dense cache and partitions the
  /// candidate pairs across the workers for full-length verification,
  /// merging per-partition answers in partition order. The output — the
  /// verified JoinWith candidates in descent order, then the delta
  /// probes' in slot order — is the same pairs in the same order for any
  /// thread count (Database::SelfJoin's JoinMethod::kTreeMatch), and
  /// `stats` is exact (per-worker thread-local tallies). Requires a
  /// KIndex.
  Result<std::vector<JoinPair>> SelfJoin(
      double epsilon, const std::optional<FeatureTransform>& transform,
      QueryStats* stats = nullptr);

 private:
  /// One operation's pinned view: the shared_ptr keeps the snapshot (and
  /// its tree) alive until the operation finishes — the grace period of
  /// the epoch swap. `view` is empty when no index is available.
  struct PinnedView {
    std::shared_ptr<const IndexSnapshot> pin;
    std::optional<IndexView> view;
  };
  PinnedView AcquireView() const;

  void RunOne(const BatchQuery& query, const IndexView* view,
              BatchResult* result) const;

  SnapshotLoader loader_;   // null in legacy mode
  const KIndex* index_;     // legacy mode only
  const Relation* relation_;
  const SubsequenceIndex* subsequence_index_;
  ThreadPool pool_;
};

}  // namespace engine
}  // namespace tsq

#endif  // TSQ_ENGINE_QUERY_ENGINE_H_
