// Copyright (c) 2026 The tsq Authors.
//
// Per-query accounting: stage tracing and the index counters, both kept
// per thread. A query runs entirely on one thread, so a before/after
// delta of either around a query is that query's own work with no
// cross-query bleed (core/queries.cpp captures both into QueryStats).
//
// Stage tracing. The multi-step filter pipeline (Sec. 4 of the paper:
// DFT projection -> tree descent -> delta scan -> full-length refine,
// with buffer-pool I/O underneath) is instrumented with StageTimer
// spans; each span charges its *self* time — wall time minus enclosed
// child spans — to one Stage on a thread-local accumulator. Self-time
// accounting is what makes nesting honest: a pool read issued
// mid-descent lands in kPoolWait, not double-counted under kDescent.
//
// Armed/disarmed like the metrics registry: TracingArmed() is one
// relaxed load, and a disarmed StageTimer constructor returns before
// reading any clock — queries with tracing off do no timing work beyond
// one branch per span site, which is the overhead contract bench_obs
// measures. Arming mid-span is safe (activity is latched at
// construction). When metrics are also armed, each span feeds its
// self-time into a per-stage global histogram
// (tsq_query_stage_self_us{stage="..."}).
//
// Index counters. Each buffer-pool and R*-tree event — the node and
// disk accesses the paper measures its index by — is counted once, at
// one site, in the IndexCounters of the thread that caused it; no pool
// or tree keeps a shared copy. Totals over many threads are sums of
// deltas: a Database adds each unit of work's delta (a query, a join
// seed, an index build) to its IndexCounterTotals, which is all that
// DatabaseStats reads.

#ifndef TSQ_OBS_TRACE_H_
#define TSQ_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tsq {
namespace obs {

/// Pipeline stages, in pipeline order. Kept dense and small: QueryStats
/// carries one wire field per stage.
enum class Stage : int {
  kPrepare = 0,   ///< query validation + DFT feature projection
  kDescent = 1,   ///< R*-tree traversal (range collect / kNN stream)
  kDelta = 2,     ///< delta-index scan, sort and drain
  kPoolWait = 3,  ///< buffer-pool misses: disk reads + in-flight waits
  kRefine = 4,    ///< full-length verification distances
};
inline constexpr size_t kNumStages = 5;

/// Lower-case stable identifier ("prepare", "descent", ...) used in
/// metric labels and slow-query-log fields.
const char* StageName(Stage stage);

/// This thread's cumulative self-time per stage, in nanoseconds
/// (monotone; snapshot to diff).
struct ThreadStageNanos {
  uint64_t ns[kNumStages] = {};
};
const ThreadStageNanos& ThisThreadStageNanos();

/// A thread's buffer-pool and R*-tree events. Plain integers: each
/// thread owns its instance, so counting is an add to a private cache
/// line. A Fetch counts as a hit or a miss exactly once, however many
/// optimistic retries or load-waits it takes.
struct IndexCounters {
  // Buffer pool (storage/buffer_pool.h), and the tree build's writes.
  uint64_t hits = 0;         ///< fetches that pinned a cached page
  uint64_t misses = 0;       ///< fetches that claimed a frame themselves
  uint64_t evictions = 0;    ///< cached pages dropped to free a frame
  uint64_t disk_reads = 0;   ///< pages read from the page file
  uint64_t disk_writes = 0;  ///< pages a tree build wrote, each once
  // R*-tree (rtree/rstar_tree.h).
  uint64_t nodes_visited = 0;        ///< node pages decoded
  uint64_t rect_transforms = 0;      ///< MBRs mapped (Algorithm 1 work)
  uint64_t leaf_entries_tested = 0;  ///< leaf entries compared

  /// Field-wise `*this - before`: the events between two snapshots of
  /// one thread's counters, `*this` the later one.
  IndexCounters operator-(const IndexCounters& before) const;
};

/// This thread's cumulative index counters (monotone; snapshot to diff).
const IndexCounters& ThisThreadIndexCounters();

/// The same counters, writable: only each event's counting site (in
/// storage/buffer_pool.cpp and rtree/rstar_tree.cpp) adds to them.
IndexCounters& MutableThisThreadIndexCounters();

/// Field-wise sums of IndexCounters deltas added from any number of
/// threads: relaxed atomics, one fetch_add per nonzero field per Add.
/// Load reads each sum once; no sum ever decreases.
class IndexCounterTotals {
 public:
  void Add(const IndexCounters& delta);
  IndexCounters Load() const;

 private:
  std::atomic<uint64_t> sums_[sizeof(IndexCounters) / sizeof(uint64_t)] = {};
};

/// Adds the index counters this thread moves during the scope's life to
/// `totals` when it ends: how one unit of work is charged to a sum.
class IndexCounterScope {
 public:
  explicit IndexCounterScope(IndexCounterTotals* totals)
      : totals_(totals), before_(ThisThreadIndexCounters()) {}
  ~IndexCounterScope() { totals_->Add(ThisThreadIndexCounters() - before_); }

  IndexCounterScope(const IndexCounterScope&) = delete;
  IndexCounterScope& operator=(const IndexCounterScope&) = delete;

 private:
  IndexCounterTotals* totals_;
  IndexCounters before_;
};

/// True when stage spans should record. One relaxed load.
bool TracingArmed();
void ArmTracing();
void DisarmTracing();

/// RAII stage span. Nested spans charge parents only with the time the
/// child did not consume (self-time accounting, via a thread-local span
/// stack). Cheap enough for per-candidate sites only when coarse; keep
/// spans at stage granularity (one per pipeline phase per query), not
/// per record.
class StageTimer {
 public:
  explicit StageTimer(Stage stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  bool active_;
  StageTimer* parent_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
};

}  // namespace obs
}  // namespace tsq

#endif  // TSQ_OBS_TRACE_H_
