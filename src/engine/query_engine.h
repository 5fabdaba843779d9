// Copyright (c) 2026 The tsq Authors.
//
// The concurrent batch query engine: executes batches of range and kNN
// queries — plus a parallel partitioned self-join — against one pinned
// index view and the Relation, on the Database's thread pool.
//
// Execution model. The caller (Database::RunBatch / SelfJoin) loads one
// IndexSnapshot per operation and keeps its shared_ptr for the whole
// call, so a batch runs against a single frozen view — the main R*-tree
// plus the delta range visible at load — no matter how many merges
// publish new epochs meanwhile; the pin is the grace period that keeps
// the old tree alive until the last in-flight operation drops it. Every
// query is a reentrant composition of the Algorithm 2 steps in
// core/queries.h, so drivers share the tree, buffer pool and relation
// without copying them. Drivers touching cached index pages never
// synchronize at all — a hit is an optimistic lock-free pin — and a
// driver's cache miss reads from disk without blocking the others' hits. Batches are executed with work stealing over an atomic
// cursor (ThreadPool::ParallelFor): the caller is one driver and
// `threads` caps how many run (0 = the pool size), so a one-query batch
// runs on its caller and a call made from inside a pool task cannot wait
// on a queued one. Each query writes into its own pre-allocated result
// slot, so results[i] always corresponds to queries[i] and the answer
// vectors are bit-identical for any thread count (each query's
// computation is sequential and self-contained).
//
// Stats (exact, lock-free included). Every per-query counter —
// including the traversal fields nodes_visited, rect_transforms and
// disk_reads — is exact under any concurrency: a query runs entirely on
// one thread, and the tree and buffer pool count each event only in the
// counters of the thread that caused it (obs::ThisThreadIndexCounters),
// so a query's before/after delta on its own thread can never include a
// neighbour query's work. The v3 pool classifies each fetch as hit or
// miss exactly once no matter how many optimistic retries or load-waits
// it goes through, so the deltas stay exact on the lock-free path too.
// BatchStats::aggregate is simply the sum of the per-query stats. The
// parallel self-join tallies each driver's thread-local deltas the same
// way, so its QueryStats are exact even while other work runs on the
// pool. Each query, join seed and delta probe also adds its whole
// counter delta, once, to the caller's `counters` (the Database's
// per-database totals that DatabaseStats reads).

#ifndef TSQ_ENGINE_QUERY_ENGINE_H_
#define TSQ_ENGINE_QUERY_ENGINE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/index_snapshot.h"
#include "core/queries.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"
#include "storage/relation.h"

namespace tsq {
namespace engine {

/// What one batch entry asks for.
enum class BatchQueryKind {
  kRange,  ///< Algorithm 2 range query (needs the KIndex)
  kKnn,    ///< optimal multi-step kNN (needs the KIndex)
};

/// One query of a batch.
struct BatchQuery {
  BatchQueryKind kind = BatchQueryKind::kRange;
  RealVec query;
  double epsilon = 0.0;  ///< range threshold
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
};

/// One query's outcome. `status` is per-query: a malformed query fails
/// alone without aborting its batch.
struct BatchResult {
  Status status;
  std::vector<Match> matches;  ///< range/kNN answers
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

/// Executes every query of the batch against `view` on `pool`, with at
/// most `threads` drivers (the caller included; 0 = pool->size()).
/// results[i] answers queries[i]; identical output for any thread
/// count. Each query's index-counter delta is added to `counters`;
/// `batch_stats` is optional. Safe from any thread, including a task of
/// `pool`.
std::vector<BatchResult> RunBatch(const IndexView& view,
                                  const Relation& relation,
                                  const std::vector<BatchQuery>& queries,
                                  ThreadPool* pool, size_t threads,
                                  obs::IndexCounterTotals* counters,
                                  BatchStats* batch_stats = nullptr);

/// Fully parallel self-join over `view` on `pool` (at most `threads`
/// drivers, as RunBatch). Phase 1 splits the synchronized R*-tree
/// descent itself across the drivers: the qualifying root-child pairs
/// (rtree::RStarTree::JoinSeeds) are independent descent tasks, each
/// collecting candidates into a per-seed buffer, and the buffers are
/// concatenated in seed order — exactly the candidate sequence of the
/// one descent from {root, root}. Phase 2 fetches+transforms every referenced
/// record exactly once into a shared dense cache and partitions the
/// candidate pairs across the drivers for full-length verification,
/// merging per-partition answers in partition order. The output — the
/// verified tree candidates in descent order, then the delta probes'
/// in slot order — is the same pairs in the same order for any thread
/// count (Database::SelfJoin's JoinMethod::kTreeMatch), and `stats` is
/// exact (per-driver thread-local tallies). The index-counter delta of
/// every seed and delta probe is added to `counters`.
Result<std::vector<JoinPair>> SelfJoin(
    const IndexView& view, const Relation& relation, double epsilon,
    const std::optional<FeatureTransform>& transform, ThreadPool* pool,
    size_t threads, obs::IndexCounterTotals* counters,
    QueryStats* stats = nullptr);

}  // namespace engine
}  // namespace tsq

#endif  // TSQ_ENGINE_QUERY_ENGINE_H_
