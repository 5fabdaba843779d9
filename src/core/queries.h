// Copyright (c) 2026 The tsq Authors.
//
// The paper's query processing (Sec. 4, Algorithm 2) over a KIndex plus the
// sequence Relation:
//
//   1. Preprocessing  — transform the query into the frequency domain,
//      apply the transformation where the mode calls for it, and decide
//      the filter radius (eps, or eps/sqrt(2) under conjugate symmetry;
//      core/search_rect.h).
//   2. Search         — descend the R*-tree through the search rectangle
//      (Sec. 3.1), applying the transformation to every MBR on the fly
//      (Algorithm 1), and keep a leaf point as a candidate only when the
//      exact leaf test passes: its stored coefficients lie within the
//      filter radius of the query's (FeatureSpace::Keeps).
//   3. Postprocessing — fetch each candidate's full record and keep it iff
//      its full-length Euclidean distance is within the threshold.
//
// Lemma 1 guarantees step 2 returns a superset of the answers, so the
// combination is exact.
//
// Supported queries: range, k-nearest-neighbor (optimal multi-step: verify
// candidates in ascending lower-bound order, stop when the bound passes the
// k-th verified distance), and the all-pairs self-join of Sec. 5 (Table 1).
//
// Every entry point takes an IndexView (index_snapshot.h): the immutable
// main R*-tree plus the delta slot range visible when the view was taken.
// Search consults both structures — delta feature points go through the
// same leaf test / lower-bound tests as tree leaf entries, so Lemma 1's
// no-false-dismissal property and the optimal multi-step kNN cutoff hold
// over the pair exactly as over one tree. A bare KIndex converts
// implicitly to an all-main view.

#ifndef TSQ_CORE_QUERIES_H_
#define TSQ_CORE_QUERIES_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/index_snapshot.h"
#include "core/k_index.h"
#include "core/search_rect.h"
#include "storage/relation.h"

namespace tsq {

/// Which side(s) of the comparison the transformation applies to.
enum class TransformMode {
  /// Compare T(data) against T(query) — the motivating use ("their 3-day
  /// moving averages look the same", Ex. 1.1; both sides smoothed).
  kBoth,
  /// Compare T(data) against the query as given — the paper's formal Query
  /// of Sec. 4 ("find all objects o in T(e) with D(o, q) < eps").
  kDataOnly,
};

/// One similarity answer.
struct Match {
  SeriesId id = kInvalidSeriesId;
  std::string name;
  double distance = 0.0;
};

/// One join answer; ordered pair (the paper's Table 1 counts (a,b) and
/// (b,a) separately for the transformed join).
struct JoinPair {
  SeriesId first = kInvalidSeriesId;
  SeriesId second = kInvalidSeriesId;
  double distance = 0.0;
};

/// Everything a query run measures. Disk/node counters are deltas captured
/// around the query.
struct QueryStats {
  /// Range and join: the points that pass the leaf test (step 2), tree
  /// and delta; kNN: the candidates verified.
  uint64_t candidates = 0;
  uint64_t verified = 0;         ///< records fetched in postprocessing
  uint64_t answers = 0;
  uint64_t nodes_visited = 0;    ///< R-tree nodes touched
  uint64_t rect_transforms = 0;  ///< MBR transformations (Algorithm 1 work)
  uint64_t disk_reads = 0;       ///< buffer-pool misses gone to disk
  uint64_t records_scanned = 0;  ///< relation records read (scans)
  double elapsed_ms = 0.0;
  /// kNN only: series in the view never fetched for verification
  /// (total_series - candidates). Measures how much work the index —
  /// or an approximation knob — saved.
  uint64_t pruned = 0;
  /// Approximate kNN: observed upper bound on the relative error of the
  /// k-th reported distance, (d_k / L) - 1 against the stopping lower
  /// bound L. 0 whenever the run provably returned the exact answer
  /// (including every exact-mode query). Guaranteed <= the requested
  /// KnnOptions::epsilon.
  double max_error = 0.0;
  /// True iff the result was produced under non-default KnnOptions.
  bool approx = false;
  /// True iff stage tracing (obs::TracingArmed) was on while this query
  /// ran — the stage fields below are meaningful only then. Tracing only
  /// reads clocks; answers are bit-identical either way.
  bool traced = false;
  /// Per-stage self-time breakdown of elapsed_ms (obs/trace.h): where
  /// inside the multi-step filter pipeline the query spent its time. The
  /// stages are exclusive (a pool read during descent counts under
  /// pool_wait_ms only), so they sum to at most elapsed_ms.
  double prepare_ms = 0.0;    ///< validation + DFT feature projection
  double descent_ms = 0.0;    ///< R*-tree traversal
  double delta_ms = 0.0;      ///< delta-index scan/sort/drain
  double pool_wait_ms = 0.0;  ///< buffer-pool disk reads + load waits
  double refine_ms = 0.0;     ///< full-length verification distances

  /// Accumulates `other` into this. Batch execution merges the per-query
  /// stats of every worker; elapsed_ms sums, so after a parallel batch it
  /// reads as aggregate compute time, not wall-clock time; max_error is
  /// the max over merged queries (a batch-level guarantee).
  void Merge(const QueryStats& other) {
    candidates += other.candidates;
    verified += other.verified;
    answers += other.answers;
    nodes_visited += other.nodes_visited;
    rect_transforms += other.rect_transforms;
    disk_reads += other.disk_reads;
    records_scanned += other.records_scanned;
    elapsed_ms += other.elapsed_ms;
    pruned += other.pruned;
    if (other.max_error > max_error) max_error = other.max_error;
    approx = approx || other.approx;
    traced = traced || other.traced;
    prepare_ms += other.prepare_ms;
    descent_ms += other.descent_ms;
    delta_ms += other.delta_ms;
    pool_wait_ms += other.pool_wait_ms;
    refine_ms += other.refine_ms;
  }
};

/// Captures this thread's stage-timer deltas (obs/trace.h) into `stats`
/// at destruction, following the same thread-local before/after contract
/// as the tree/pool counters: a query runs on one thread, so the delta is
/// exactly that query's stage breakdown. No-op (beyond one relaxed load)
/// while tracing is disarmed or stats is null.
class StageStatsCapture {
 public:
  explicit StageStatsCapture(QueryStats* stats);
  ~StageStatsCapture();

  StageStatsCapture(const StageStatsCapture&) = delete;
  StageStatsCapture& operator=(const StageStatsCapture&) = delete;

 private:
  QueryStats* stats_;
  bool active_;
  uint64_t before_ns_[5] = {};
};

/// Shared query parameters.
struct QuerySpec {
  std::optional<FeatureTransform> transform;
  TransformMode mode = TransformMode::kBoth;
  std::optional<MeanStdWindow> window;
};

/// Approximation knobs for kNN (both default to exact search). The two
/// knobs compose; whichever stops the search first wins, and the observed
/// quality is reported in QueryStats (candidates visited, pruned,
/// max_error).
struct KnnOptions {
  /// Relative error tolerance: stop once the next lower bound L satisfies
  /// L * (1 + epsilon) > d_k, guaranteeing every reported distance is
  /// within (1 + epsilon) of the true k-th distance. 0 = exact — and
  /// structurally identical to the exact code path, so epsilon = 0
  /// answers are bit-identical to a default-options run.
  double epsilon = 0.0;
  /// Hard cap on candidates fetched and verified; 0 = unlimited. The
  /// error of the answers at the moment the budget ran out is reported
  /// as QueryStats::max_error (no a-priori guarantee). A budget of k is
  /// the ng-approximate "first leaf" heuristic: stop as soon as k
  /// candidates have been verified.
  uint64_t probe_budget = 0;

  bool is_default() const { return epsilon == 0.0 && probe_budget == 0; }
};

// ---------------------------------------------------------------------------
// Algorithm 2 as reentrant steps.
//
// Each step is a free function over const index/relation views and keeps
// all its state in values owned by the caller, so any number of threads
// can run queries against one shared (frozen) KIndex + Relation. The
// whole-query entry points below compose them, and the batch engine
// (src/engine/) runs those reentrant compositions on the database's
// thread pool; the steps are exported so future pipelines (e.g. a
// staged executor that batches verification I/O) can recombine them.
// ---------------------------------------------------------------------------

/// Step 1 output — the query lifted into the frequency domain with the
/// transformation applied per QuerySpec::mode. Self-contained values, no
/// references into the index.
struct PreparedQuery {
  ComplexVec full_spectrum;  ///< comparison target, full length
  ComplexVec coefficients;   ///< stored slice, the filter's center
  double mean = 0.0;         ///< (transformed) query mean
  double std = 0.0;          ///< (transformed) query std
  /// Set when conjugate symmetry lets the range filter's radius be
  /// eps/sqrt(2): the MirrorError bound the radius adds half of.
  /// Unset: the radius is eps.
  std::optional<double> mirror_error;
};

/// Step 1 — preprocessing: validates the query length, extracts its
/// (transformed) features and decides the filter radius (mirror_error).
Result<PreparedQuery> PrepareQuery(const IndexView& index, const RealVec& query,
                                   const QuerySpec& spec);

/// Step 2 — search: builds the range filter for `prepared` (the Sec. 3.1
/// rectangle around the ball of the filter radius) and collects the ids
/// that pass its leaf test from the (transformed) index traversal — tree
/// leaves first, then the view's delta entries in id order.
Status RangeSearchCandidates(const IndexView& index,
                             const PreparedQuery& prepared,
                             double epsilon, const QuerySpec& spec,
                             std::vector<SeriesId>* out);

/// Step 2's delta half: appends, in id order, every visible delta entry
/// of `view` that `filter` keeps after `map` (null: no transform) —
/// exactly the tree's leaf test, so main and delta filter alike.
void AppendDeltaRangeCandidates(const IndexView& view,
                                const spatial::AffineMap* map,
                                const RangeFilter& filter,
                                std::vector<SeriesId>* out);

/// Step 3 kernel — the full-length verification distance
/// D(T(X_data), Q_target) (Parseval: computed in the frequency domain).
/// The reference for every indexed refine: the range, kNN and join
/// refines abandon a candidate's sum early, but each answer they return
/// carries exactly this distance, bit for bit.
double VerifyDistance(const ComplexVec& data_spectrum,
                      const std::optional<FeatureTransform>& transform,
                      const ComplexVec& query_target);

/// Step 3 — postprocessing: fetches every candidate record and appends the
/// ones within `epsilon` to `out` (unsorted; callers order the final
/// answer set). Bumps stats->verified per fetched record when given.
/// A candidate's sum is abandoned once it provably fails the accept test
/// `d <= epsilon`, which is applied unchanged, so the answers and their
/// distances are those of VerifyDistance over every candidate.
Status VerifyRangeCandidates(const Relation& relation,
                             const std::vector<SeriesId>& candidates,
                             const PreparedQuery& prepared,
                             const QuerySpec& spec, double epsilon,
                             std::vector<Match>* out, QueryStats* stats);

/// Deterministic answer ordering shared by all range paths: ascending
/// distance, ties by id.
void SortMatches(std::vector<Match>* matches);

// ---------------------------------------------------------------------------
// Whole-query entry points (compositions of the steps above). All are
// reentrant over a frozen index/relation pair.
// ---------------------------------------------------------------------------

/// Range query via the index (Algorithm 2).
Status IndexRangeQuery(const IndexView& index, const Relation& relation,
                       const RealVec& query, double epsilon,
                       const QuerySpec& spec, std::vector<Match>* out,
                       QueryStats* stats);

/// k-nearest-neighbor query via the index (optimal multi-step). Tree and
/// unmerged entries are verified in one ascending lower-bound order, and
/// the search stops at the first item whose bound passes the k-th
/// verified distance — a tree node before its page is read, or an
/// unmerged entry on its cheap key (NnMetric::CheapMinDistSquared; such
/// entries wait in a (bound, id) heap and get their exact bound only at
/// its top). Every item's bound is at most that of each candidate behind
/// it, so the candidates verified, the answers and the counts are those
/// of a stop tested at candidates only. With non-default `options` the
/// search may stop before the exactness proof completes; QueryStats
/// reports the observed (candidates, pruned, max_error) triple so recall
/// is measurable, max_error taken from the bound the search stopped at.
/// Each candidate's sum is abandoned once it exceeds the current k-th
/// best, which it could not have replaced; answers and distances are
/// unchanged by the abandon.
Status IndexKnnQuery(const IndexView& index, const Relation& relation,
                     const RealVec& query, size_t k, const QuerySpec& spec,
                     const KnnOptions& options, std::vector<Match>* out,
                     QueryStats* stats);

/// Exact-mode convenience overload (default KnnOptions).
Status IndexKnnQuery(const IndexView& index, const Relation& relation,
                     const RealVec& query, size_t k, const QuerySpec& spec,
                     std::vector<Match>* out, QueryStats* stats);

/// All-pairs self-join via the index: for every stored series, a range
/// query against the (transformed) index — the paper's methods c (no
/// transformation) and d (with transformation), with the range filter's
/// leaf test and radius (MirrorError is decided once per join). Emits
/// ordered pairs (a, b), a != b. The refine abandons as
/// VerifyRangeCandidates does.
Status IndexSelfJoin(const IndexView& index, const Relation& relation,
                     double epsilon,
                     const std::optional<FeatureTransform>& transform,
                     std::vector<JoinPair>* out, QueryStats* stats);

}  // namespace tsq

#endif  // TSQ_CORE_QUERIES_H_
