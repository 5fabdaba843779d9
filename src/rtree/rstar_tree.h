// Copyright (c) 2026 The tsq Authors.
//
// Disk-backed R*-tree [BKSS90] — the index structure the paper's
// experiments run on ("we implemented our method on top of Norbert
// Beckmann's Version 2 implementation of the R*-tree", Sec. 5). The paper
// builds its index once over an existing relation and then only
// traverses it, so a tree is written exactly once, by Sort-Tile-Recursive
// packing (BulkLoad), and is read-only from then on: there is no
// insertion, node split or deletion.
//
// The tree supports two search modes:
//   * Search            — the classic R-tree range search;
//   * SearchTransformed — the paper's Algorithm 2 traversal: every MBR is
//     pushed through a safe transformation (an AffineMap, see Theorems 1-3)
//     *before* the intersection test, which is exactly the on-the-fly
//     construction of the transformed index I' = T(I) of Algorithm 1.
// Keeping the modes separate is intentional: the paper's Figure 8/9
// experiment measures their gap (a constant CPU cost for the vector
// multiply, identical disk accesses).

#ifndef TSQ_RTREE_RSTAR_TREE_H_
#define TSQ_RTREE_RSTAR_TREE_H_

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "spatial/affine_map.h"
#include "spatial/metrics.h"
#include "storage/buffer_pool.h"

namespace tsq {
namespace rtree {

/// Construction-time options.
struct RTreeOptions {
  /// When nonzero, caps node fanout below the page-derived capacity —
  /// a test hook that forces deep trees on tiny data sets.
  size_t max_entries_override = 0;
};

/// One nearest-neighbor answer.
struct NnResult {
  uint64_t id = 0;
  double distance = 0.0;  ///< distance in (transformed) feature space
};

/// Pluggable NN distance: a lower bound of the query-object distance over
/// everything inside an MBR. For degenerate (point) rects the bound must be
/// the exact distance, and a rect's bound must not exceed the bound of a
/// rect it contains: the best-first order, and a caller that stops at a
/// node's bound, rely on it. Implementations: spatial MINDIST for
/// rectangular feature spaces, the annular-sector metric for polar spaces
/// (src/core).
class NnMetric {
 public:
  virtual ~NnMetric() = default;
  virtual double MinDistSquared(const spatial::Rect& rect) const = 0;

  /// A cheaper first key for a point rect: never above
  /// MinDistSquared(point) as a double, so a caller can rank points by it
  /// and compute MinDistSquared only for the ones that reach the front
  /// (IndexKnnQuery's unmerged entries). The default is MinDistSquared
  /// itself.
  virtual double CheapMinDistSquared(const spatial::Rect& point) const {
    return MinDistSquared(point);
  }

  /// out[i] = MinDistSquared(*rects[i]) for i < count — one call per tree
  /// node instead of one virtual call per entry. The default loops;
  /// metrics backed by the simd kernel layer override it with a batched
  /// kernel (bit-identical per element, so which form runs is
  /// unobservable in the answers).
  virtual void MinDistSquaredBatch(const spatial::Rect* const* rects,
                                   size_t count, double* out) const {
    for (size_t i = 0; i < count; ++i) out[i] = MinDistSquared(*rects[i]);
  }
};

/// Result of CheckInvariants.
struct CheckReport {
  bool ok = true;
  std::string message;        ///< first violation found, empty when ok
  uint64_t leaf_entries = 0;  ///< total data entries seen
};

/// Callback for range searches: receives the data id and the (transformed)
/// leaf MBR; return false to stop the traversal early.
using SearchCallback =
    std::function<bool(uint64_t id, const spatial::Rect& rect)>;

/// A persistent R*-tree over a BufferPool. All rectangles must match the
/// tree's dimensionality.
///
/// Concurrency contract (v3): the const read operations — Search,
/// SearchTransformed, NearestNeighbors(Stream), JoinWith,
/// JoinSeeds/JoinFrom, CheckInvariants — are safe from any number of
/// threads provided no mutating call (BulkLoad, SaveMeta) runs
/// concurrently. Page access goes through the v3 BufferPool, where a
/// fetch of a cached node page is entirely lock-free (optimistic version-
/// validated pin; see buffer_pool.h) and a miss reads from disk without
/// holding the pool's mutex, so concurrent traversals only ever contend
/// on the miss/eviction admin path, never on cached-node access.
///
/// Traversal storage: every read-only descent decodes each page it visits
/// into NodeBuffer storage it owns — one slot per recursion depth (one
/// buffer for the best-first kNN loop), plus reused scratch rects that
/// AffineMap::ApplyInto writes the mapped MBRs into — created per call
/// and never shared between threads or with a nested traversal. A page
/// stays pinned only while it is decoded, so depth never accumulates
/// pins, and after a descent's first node at each depth it allocates
/// nothing per node or entry. CheckInvariants keeps the owning LoadNode.
///
/// Counters: each decoded node, mapped MBR and tested leaf entry counts
/// once, in the obs::IndexCounters of the thread that did the work
/// (obs/trace.h); the tree keeps no counter of its own. A descent adds a
/// node's transforms and leaf tests when it is done with the node, so a
/// before/after delta on one thread is exactly that thread's traversal
/// work, whatever other threads traverse meanwhile. BulkLoad requires
/// external exclusion (the engine layer treats a built index as frozen).
///
/// Corrupt pages: a descent returns Corruption — never aborts — for a
/// page DecodeNode rejects (bad magic or count, an inverted or NaN MBR
/// interval) and for a child whose level is not its parent's level - 1,
/// which also rules out cycles such as an entry pointing at its own page.
class RStarTree {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(RStarTree);

  /// Creates an empty tree with a fresh meta page in `pool`'s file.
  static Result<std::unique_ptr<RStarTree>> Create(
      BufferPool* pool, size_t dims, const RTreeOptions& options = {});

  /// Reopens a tree previously persisted with SaveMeta.
  static Result<std::unique_ptr<RStarTree>> Open(
      BufferPool* pool, PageId meta_page, const RTreeOptions& options = {});

  ~RStarTree();

  /// Loads `entries` into an *empty* tree using Sort-Tile-Recursive
  /// packing (Leutenegger et al.): entries are recursively tiled by center
  /// coordinate and packed into ~90%-full nodes, leaves first, upper
  /// levels bottom-up. The only way a tree is written: the paper's index
  /// is built once over an existing relation.
  ///
  /// STR sorts and slabs only dims [first_tiled_dim, dims): the dims
  /// below stay in every MBR, so searches that bound them and
  /// CheckInvariants still see them, but they never set which entries
  /// share a node. The choice is a trade between searches: with fewer
  /// dims tiled, each node spans a tighter box on the tiled ones, so a
  /// search that leaves the untiled dims unbounded visits fewer nodes,
  /// and one that bounds them visits more, since it can no longer prune
  /// on them. Fails with InvalidArgument unless first_tiled_dim < dims,
  /// and with FailedPrecondition on a non-empty tree.
  Status BulkLoad(std::vector<Entry> entries, size_t first_tiled_dim);

  /// Classic range search: emits every leaf entry whose MBR intersects
  /// `query`.
  Status Search(const spatial::Rect& query, const SearchCallback& emit) const;

  /// Algorithm 2 traversal: applies `map` to every MBR during descent and
  /// emits leaf entries whose *transformed* MBR intersects `query`. With a
  /// safe map this visits a superset of the qualifying data (Lemma 1).
  Status SearchTransformed(const spatial::AffineMap& map,
                           const spatial::Rect& query,
                           const SearchCallback& emit) const;

  /// Best-first k-nearest-neighbor search under `metric`. When `map` is
  /// non-null every MBR is transformed before the metric sees it. Results
  /// arrive sorted by ascending distance.
  Status NearestNeighbors(const NnMetric& metric, size_t k,
                          const spatial::AffineMap* map,
                          std::vector<NnResult>* out) const;

  /// What NearestNeighborsStream hands its callback for each item it
  /// pops: a data entry (`id` holds its data id, the bound is exact for
  /// its point) or a node it is about to read (`id` empty, the bound is
  /// its MBR's). Returning false stops the enumeration.
  using NnCallback =
      std::function<bool(std::optional<uint64_t> id, double lower_bound_sq)>;

  /// Incremental best-first enumeration: pops nodes and data entries in
  /// ascending lower-bound order and hands each one to `emit` — a node
  /// before its page is fetched — until `emit` returns false or the tree
  /// is exhausted. A node's bound bounds everything still queued and
  /// everything below it, so a caller whose stop rule rules a node out
  /// returns false there and the page is never fetched, decoded or
  /// expanded. Bounds are SQUARED — the refine layer compares in squared
  /// space and takes one sqrt per materialized answer, not one per
  /// candidate. The backbone of optimal multi-step kNN (candidates are
  /// verified against full-length data by the caller, which stops as soon
  /// as a popped bound passes its k-th verified distance).
  Status NearestNeighborsStream(const NnMetric& metric,
                                const spatial::AffineMap* map,
                                const NnCallback& emit) const;

  /// Decides whether a pair of (transformed) rectangles can contain
  /// qualifying join pairs; false prunes the subtree pair.
  using JoinPredicate =
      std::function<bool(const spatial::Rect&, const spatial::Rect&)>;

  /// Callback per candidate leaf pair (id from this tree, id from other).
  /// Return false to stop the join.
  using JoinCallback = std::function<bool(uint64_t a, uint64_t b)>;

  /// Synchronized-traversal spatial join with `other` (may be this tree
  /// itself for a self-join): descends both trees in lockstep, pruning
  /// node pairs the predicate rejects, and emits all surviving leaf-entry
  /// pairs. `map` / `other_map` transform this/other tree's MBRs on the
  /// fly (Algorithm 1 applied to both join inputs, as in the paper's
  /// "spatial join between r and Trev(r)"); null means identity. This is
  /// the tree-matching alternative to the paper's index-nested-loop join
  /// (methods c/d) — one traversal instead of one query per record.
  Status JoinWith(const RStarTree& other, const spatial::AffineMap* map,
                  const spatial::AffineMap* other_map,
                  const JoinPredicate& may_join,
                  const JoinCallback& emit) const;

  /// A descent's expected level for a node with no parent to constrain
  /// it (a root).
  static constexpr uint32_t kAnyLevel = std::numeric_limits<uint32_t>::max();

  /// One unit of parallel join work: roots of two subtrees (one per tree)
  /// to descend in lockstep, and the level each must sit at — one below
  /// its parent, so a corrupt child page fails the seed's descent as it
  /// fails JoinWith's. Only the {root, root} seed carries kAnyLevel.
  struct JoinSeed {
    PageId a = kInvalidPageId;
    PageId b = kInvalidPageId;
    uint32_t a_level = kAnyLevel;
    uint32_t b_level = kAnyLevel;
  };

  /// Splits the JoinWith traversal into independent subtree-pair tasks by
  /// expanding the qualifying root-child pairs one level down (the same
  /// pairs, in the same order, the sequential descent would recurse into).
  /// Running JoinFrom on every seed in order emits exactly the JoinWith
  /// candidate sequence; the seeds are independent, so an engine may run
  /// them on as many threads as it likes and concatenate per-seed output
  /// buffers in seed order. When a root is a leaf (or the roots' levels
  /// differ) there is nothing to split and the single seed {root, root}
  /// is returned; in that degenerate case the root pages are loaded both
  /// here and again by JoinFrom, so node-visit counters exceed the
  /// sequential JoinWith by the two extra loads (the candidate output is
  /// still identical). In the split case the counters match exactly.
  /// Empty trees yield no seeds.
  Result<std::vector<JoinSeed>> JoinSeeds(const RStarTree& other,
                                          const spatial::AffineMap* map,
                                          const spatial::AffineMap* other_map,
                                          const JoinPredicate& may_join) const;

  /// Runs the synchronized descent from one seed (see JoinSeeds). Safe to
  /// call concurrently from many threads with distinct seeds: each call
  /// owns its traversal storage, page access goes through the BufferPool,
  /// and counters are thread-local.
  Status JoinFrom(const JoinSeed& seed, const RStarTree& other,
                  const spatial::AffineMap* map,
                  const spatial::AffineMap* other_map,
                  const JoinPredicate& may_join,
                  const JoinCallback& emit) const;

  /// Number of data entries.
  uint64_t size() const { return size_; }

  /// Root level + 1 (a pure-leaf root has height 1); 0 when empty.
  uint32_t height() const { return height_; }

  /// Feature-space dimensionality.
  size_t dims() const { return dims_; }

  /// Max/min entries per node: every non-root node STR writes holds at
  /// least min_fill() entries, and CheckInvariants audits it.
  size_t node_capacity() const { return max_entries_; }
  size_t min_fill() const { return min_fill_; }

  /// The tree's meta page id (pass to Open).
  PageId meta_page() const { return meta_page_; }

  /// Persists root/size/height to the meta page; marks it dirty only
  /// when one of them differs from what the page holds.
  Status SaveMeta();

  /// Structural audit: fill factors, MBR containment, level consistency,
  /// entry count. O(tree). Used by property tests.
  Result<CheckReport> CheckInvariants() const;

 private:
  RStarTree(BufferPool* pool, size_t dims, const RTreeOptions& options);

  struct SearchSlot;
  struct SearchContext;
  struct JoinSlot;
  struct JoinContext;

  Result<Node> LoadNode(PageId id) const;
  /// Decodes page `id` into reused storage, pinning it for the decode
  /// only; Corruption unless its level is `expected_level` (any level
  /// when that is kAnyLevel).
  Status ReadNode(PageId id, uint32_t expected_level, NodeBuffer* out) const;
  Status StoreNode(const Node& node);
  Result<PageId> AllocateNodePage();

  /// STR helper: recursively tiles `entries` by center coordinate starting
  /// at `dim` and appends groups of at most `group_size` (and at least
  /// min_fill, by rebalancing the tail) to `groups`.
  void TilePartition(std::vector<Entry>&& entries, size_t dim,
                     size_t group_size,
                     std::vector<std::vector<Entry>>* groups) const;

  Status SearchRecurse(PageId node_id, uint32_t expected_level,
                       size_t depth, SearchContext* ctx) const;

  Status JoinRecurse(PageId a_id, uint32_t a_level, PageId b_id,
                     uint32_t b_level, size_t depth, JoinContext* ctx) const;

  Status CheckRecurse(PageId node_id, uint32_t expected_level, bool is_root,
                      CheckReport* report) const;

  BufferPool* pool_;
  size_t dims_;
  size_t max_entries_ = 0;
  size_t min_fill_ = 0;

  PageId meta_page_ = kInvalidPageId;
  PageId root_ = kInvalidPageId;
  uint64_t size_ = 0;
  uint32_t height_ = 0;
};

}  // namespace rtree
}  // namespace tsq

#endif  // TSQ_RTREE_RSTAR_TREE_H_
