// Copyright (c) 2026 The tsq Authors.

#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>

#include "obs/trace.h"

namespace tsq {
namespace rtree {

namespace {

// Meta page layout: u64 magic | u64 dims | u64 root | u64 size | u64 height.
constexpr uint64_t kMetaMagic = 0x3154524151535400ull;

// Minimum fill of a non-root node, as a percentage of its capacity
// ([BKSS90]'s 40%): STR rebalances a slab's last node up to it.
constexpr size_t kMinFillPercent = 40;

// One node's MBR transforms and leaf tests, added to this thread's
// counters when the node is done (on every exit path).
struct NodeTally {
  NodeTally() = default;
  ~NodeTally() {
    obs::IndexCounters& counters = obs::MutableThisThreadIndexCounters();
    counters.rect_transforms += transforms;
    counters.leaf_entries_tested += leaf_tests;
  }
  TSQ_DISALLOW_COPY_AND_MOVE(NodeTally);

  uint64_t transforms = 0;
  uint64_t leaf_tests = 0;
};

// `rect` itself without a map; otherwise map(rect), written into
// `*scratch` and counted in `tally`.
const spatial::Rect& Mapped(const spatial::AffineMap* map,
                            const spatial::Rect& rect, spatial::Rect* scratch,
                            NodeTally* tally) {
  if (map == nullptr) return rect;
  map->ApplyInto(rect, scratch);
  ++tally->transforms;
  return *scratch;
}

// The slot for recursion depth `depth`, appended on first use. A deque
// never moves its elements on append, so shallower slots a caller is
// still iterating stay valid.
template <typename Slot>
Slot& SlotAt(std::deque<Slot>* slots, size_t depth) {
  while (slots->size() <= depth) slots->emplace_back();
  return (*slots)[depth];
}

}  // namespace

// Storage one range descent owns (never shared between threads or
// traversals): per depth, the decoded node and the scratch rect its
// entries' MBRs are mapped into.
struct RStarTree::SearchSlot {
  NodeBuffer node;
  spatial::Rect mapped;
};

struct RStarTree::SearchContext {
  const spatial::AffineMap* map;
  const spatial::Rect& query;
  const SearchCallback& emit;
  std::deque<SearchSlot> slots{};
  bool keep_going = true;
};

// Per-depth storage of one synchronized join descent: both sides' nodes,
// their mapped-MBR scratch, and the bounding rect of a side that waits
// while the other descends.
struct RStarTree::JoinSlot {
  NodeBuffer a;
  NodeBuffer b;
  spatial::Rect mapped_a;
  spatial::Rect mapped_b;
  spatial::Rect bound;
};

struct RStarTree::JoinContext {
  const RStarTree& other;
  const spatial::AffineMap* map_a;
  const spatial::AffineMap* map_b;
  const JoinPredicate& may_join;
  const JoinCallback& emit;
  std::deque<JoinSlot> slots{};
  bool keep_going = true;
};

RStarTree::RStarTree(BufferPool* pool, size_t dims,
                     const RTreeOptions& options)
    : pool_(pool), dims_(dims) {
  TSQ_CHECK(pool != nullptr);
  const size_t page_capacity = NodeCapacity(pool->file()->page_size(), dims);
  max_entries_ = page_capacity;
  if (options.max_entries_override != 0) {
    TSQ_CHECK_MSG(options.max_entries_override <= page_capacity,
                  "max_entries_override %zu exceeds page capacity %zu",
                  options.max_entries_override, page_capacity);
    max_entries_ = options.max_entries_override;
  }
  TSQ_CHECK_MSG(max_entries_ >= 4,
                "node capacity %zu too small; raise the page size",
                max_entries_);
  min_fill_ = std::max<size_t>(1, max_entries_ * kMinFillPercent / 100);
}

Result<std::unique_ptr<RStarTree>> RStarTree::Open(
    BufferPool* pool, PageId meta_page, const RTreeOptions& options) {
  TSQ_ASSIGN_OR_RETURN(PageHandle meta, pool->Fetch(meta_page));
  const Page* p = meta.page();
  if (p->ReadU64(0) != kMetaMagic) {
    return Status::Corruption("bad R-tree meta magic");
  }
  const uint64_t dims = p->ReadU64(8);
  if (dims < 1 || dims > 1024) {
    return Status::Corruption("implausible R-tree dimensionality " +
                              std::to_string(dims));
  }
  auto tree = std::unique_ptr<RStarTree>(
      new RStarTree(pool, static_cast<size_t>(dims), options));
  tree->meta_page_ = meta_page;
  tree->root_ = p->ReadU64(16);
  tree->size_ = p->ReadU64(24);
  tree->height_ = static_cast<uint32_t>(p->ReadU64(32));
  return tree;
}

Result<Node> RStarTree::LoadNode(PageId id) const {
  // The pin lives only for the deserialize below. Under the v3 pool a
  // cached fetch is a single pin-CAS + version validate (no mutex, no LRU
  // mutation) and a miss does its pread without the pool mutex, so
  // concurrent traversals never stall here on each other's node loads.
  TSQ_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(id));
  Node node;
  TSQ_RETURN_IF_ERROR(DeserializeNode(*handle.page(), dims_, &node));
  node.id = id;
  ++obs::MutableThisThreadIndexCounters().nodes_visited;
  return node;
}

Status RStarTree::ReadNode(PageId id, uint32_t expected_level,
                           NodeBuffer* out) const {
  {
    // Pinned for the decode only, as in LoadNode.
    TSQ_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(id));
    TSQ_RETURN_IF_ERROR(DecodeNode(*handle.page(), dims_, out));
  }
  ++obs::MutableThisThreadIndexCounters().nodes_visited;
  if (expected_level != kAnyLevel && out->level() != expected_level) {
    // A child must sit exactly one level below its parent; anything else
    // (e.g. an entry pointing back at its own page) would recurse forever.
    return Status::Corruption(
        "node " + std::to_string(id) + " at level " +
        std::to_string(out->level()) + ", expected " +
        std::to_string(expected_level));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Building (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

void RStarTree::TilePartition(std::vector<Entry>&& entries, size_t dim,
                              size_t group_size,
                              std::vector<std::vector<Entry>>* groups) const {
  const size_t n = entries.size();
  auto sort_by_center = [dim](std::vector<Entry>* items) {
    std::sort(items->begin(), items->end(),
              [dim](const Entry& a, const Entry& b) {
                const double ca = 0.5 * (a.rect.lo(dim) + a.rect.hi(dim));
                const double cb = 0.5 * (b.rect.lo(dim) + b.rect.hi(dim));
                if (ca != cb) return ca < cb;
                return a.id < b.id;  // deterministic
              });
  };

  if (dim + 1 == dims_ || n <= group_size) {
    // Final dimension: sort and chop into groups of `group_size`,
    // rebalancing the last two groups so none falls under min_fill.
    sort_by_center(&entries);
    std::vector<std::vector<Entry>> chunks;
    for (size_t start = 0; start < n; start += group_size) {
      const size_t end = std::min(start + group_size, n);
      chunks.emplace_back(
          std::make_move_iterator(entries.begin() +
                                  static_cast<ptrdiff_t>(start)),
          std::make_move_iterator(entries.begin() +
                                  static_cast<ptrdiff_t>(end)));
    }
    if (chunks.size() >= 2 && chunks.back().size() < min_fill_) {
      // Steal from the second-to-last chunk to even out the tail.
      std::vector<Entry>& prev = chunks[chunks.size() - 2];
      std::vector<Entry>& last = chunks.back();
      const size_t total = prev.size() + last.size();
      const size_t want_last = total / 2;
      while (last.size() < want_last) {
        last.insert(last.begin(), std::move(prev.back()));
        prev.pop_back();
      }
    }
    for (auto& chunk : chunks) groups->push_back(std::move(chunk));
    return;
  }

  // Slabs along this dimension: S = ceil(P^(1/remaining_dims)) where P is
  // the number of groups still to produce.
  const size_t remaining_dims = dims_ - dim;
  const double p = std::ceil(static_cast<double>(n) /
                             static_cast<double>(group_size));
  const size_t slabs = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::pow(p, 1.0 / static_cast<double>(remaining_dims)))));
  const size_t per_slab = (n + slabs - 1) / slabs;

  sort_by_center(&entries);
  for (size_t start = 0; start < n; start += per_slab) {
    const size_t end = std::min(start + per_slab, n);
    std::vector<Entry> slab(
        std::make_move_iterator(entries.begin() +
                                static_cast<ptrdiff_t>(start)),
        std::make_move_iterator(entries.begin() +
                                static_cast<ptrdiff_t>(end)));
    TilePartition(std::move(slab), dim + 1, group_size, groups);
  }
}

Result<std::unique_ptr<RStarTree>> RStarTree::Build(
    BufferPool* pool, size_t dims, std::vector<Entry> entries,
    size_t first_tiled_dim, const RTreeOptions& options) {
  if (dims < 1) {
    return Status::InvalidArgument("tree dimensionality must be >= 1");
  }
  PageFile* file = pool->file();
  if (NodeCapacity(file->page_size(), dims) < 4) {
    return Status::InvalidArgument(
        "page size too small for dimensionality " + std::to_string(dims));
  }
  if (first_tiled_dim >= dims) {
    return Status::InvalidArgument(
        "Build first_tiled_dim " + std::to_string(first_tiled_dim) +
        " not below the tree's " + std::to_string(dims) + " dims");
  }
  for (const Entry& e : entries) {
    if (e.rect.dims() != dims) {
      return Status::InvalidArgument("entry dims mismatch in Build");
    }
    if (e.rect.IsEmpty()) {
      return Status::InvalidArgument("cannot build over an empty rectangle");
    }
  }
  auto tree = std::unique_ptr<RStarTree>(new RStarTree(pool, dims, options));
  tree->meta_page_ = file->Allocate();
  tree->root_ = file->Allocate();
  tree->size_ = entries.size();

  // One page buffer for every write; each write counts on this thread.
  Page page(file->page_size());
  const auto write = [file, &page](PageId id) -> Status {
    TSQ_RETURN_IF_ERROR(file->Write(id, page));
    ++obs::MutableThisThreadIndexCounters().disk_writes;
    return Status::OK();
  };

  // Pack nodes to ~90% of capacity.
  const size_t fill = std::max<size_t>(
      tree->min_fill_, std::max<size_t>(1, tree->max_entries_ * 9 / 10));

  // Level 0: tile data entries into leaves; each level's nodes become
  // the entries of the next, until one node (the root) holds them all.
  Node node;
  node.level = 0;
  std::vector<Entry> current = std::move(entries);
  while (current.size() > tree->max_entries_) {
    std::vector<std::vector<Entry>> groups;
    tree->TilePartition(std::move(current), first_tiled_dim, fill, &groups);
    std::vector<Entry> parents;
    parents.reserve(groups.size());
    for (auto& group : groups) {
      node.entries = std::move(group);
      TSQ_RETURN_IF_ERROR(SerializeNode(node, dims, &page));
      Entry parent;
      parent.rect = node.BoundingRect();
      parent.id = file->Allocate();
      TSQ_RETURN_IF_ERROR(write(parent.id));
      parents.push_back(std::move(parent));
    }
    current = std::move(parents);
    ++node.level;
  }
  node.entries = std::move(current);
  TSQ_RETURN_IF_ERROR(SerializeNode(node, dims, &page));
  TSQ_RETURN_IF_ERROR(write(tree->root_));
  tree->height_ = node.level + 1;

  // The meta page last: it is what names the root.
  page.Clear();
  page.WriteU64(0, kMetaMagic);
  page.WriteU64(8, dims);
  page.WriteU64(16, tree->root_);
  page.WriteU64(24, tree->size_);
  page.WriteU64(32, tree->height_);
  TSQ_RETURN_IF_ERROR(write(tree->meta_page_));
  return tree;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

Status RStarTree::Search(const spatial::Rect& query,
                         const SearchCallback& emit) const {
  if (query.dims() != dims_) {
    return Status::InvalidArgument("query dims mismatch");
  }
  SearchContext ctx{/*map=*/nullptr, query, emit};
  return SearchRecurse(root_, kAnyLevel, 0, &ctx);
}

Status RStarTree::SearchTransformed(const spatial::AffineMap& map,
                                    const spatial::Rect& query,
                                    const SearchCallback& emit) const {
  if (query.dims() != dims_) {
    return Status::InvalidArgument("query dims mismatch");
  }
  if (map.dims() != dims_) {
    return Status::InvalidArgument("transform dims mismatch");
  }
  SearchContext ctx{&map, query, emit};
  return SearchRecurse(root_, kAnyLevel, 0, &ctx);
}

Status RStarTree::SearchRecurse(PageId node_id, uint32_t expected_level,
                                size_t depth, SearchContext* ctx) const {
  SearchSlot& slot = SlotAt(&ctx->slots, depth);
  const NodeBuffer& node = slot.node;
  TSQ_RETURN_IF_ERROR(ReadNode(node_id, expected_level, &slot.node));

  NodeTally tally;
  for (const Entry& e : node) {
    if (!ctx->keep_going) return Status::OK();
    const spatial::Rect& rect = Mapped(ctx->map, e.rect, &slot.mapped, &tally);
    if (node.IsLeaf()) {
      ++tally.leaf_tests;
      if (rect.Intersects(ctx->query)) {
        if (!ctx->emit(e.id, rect)) {
          ctx->keep_going = false;
          return Status::OK();
        }
      }
    } else if (rect.Intersects(ctx->query)) {
      TSQ_RETURN_IF_ERROR(
          SearchRecurse(e.id, node.level() - 1, depth + 1, ctx));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Spatial join (synchronized traversal)
// ---------------------------------------------------------------------------

Status RStarTree::JoinRecurse(PageId a_id, uint32_t a_level, PageId b_id,
                              uint32_t b_level, size_t depth,
                              JoinContext* ctx) const {
  JoinSlot& slot = SlotAt(&ctx->slots, depth);
  const NodeBuffer& na = slot.a;
  const NodeBuffer& nb = slot.b;
  TSQ_RETURN_IF_ERROR(ReadNode(a_id, a_level, &slot.a));
  TSQ_RETURN_IF_ERROR(ctx->other.ReadNode(b_id, b_level, &slot.b));
  // Only a corrupt tree has an empty node below its root: nothing pairs.
  if (na.size() == 0 || nb.size() == 0) return Status::OK();

  NodeTally tally;
  const spatial::AffineMap* map_a = ctx->map_a;
  const spatial::AffineMap* map_b = ctx->map_b;

  if (na.IsLeaf() && nb.IsLeaf()) {
    for (const Entry& ea : na) {
      const spatial::Rect& ta = Mapped(map_a, ea.rect, &slot.mapped_a, &tally);
      for (const Entry& eb : nb) {
        if (!ctx->keep_going) return Status::OK();
        ++tally.leaf_tests;
        if (ctx->may_join(ta,
                          Mapped(map_b, eb.rect, &slot.mapped_b, &tally))) {
          if (!ctx->emit(ea.id, eb.id)) {
            ctx->keep_going = false;
            return Status::OK();
          }
        }
      }
    }
    return Status::OK();
  }

  if (!na.IsLeaf() && (nb.IsLeaf() || na.level() > nb.level())) {
    // Descend only this side until the levels meet.
    nb.BoundingRectInto(&slot.bound);
    const spatial::Rect& tb = Mapped(map_b, slot.bound, &slot.mapped_b, &tally);
    for (const Entry& ea : na) {
      if (!ctx->keep_going) return Status::OK();
      if (ctx->may_join(Mapped(map_a, ea.rect, &slot.mapped_a, &tally), tb)) {
        TSQ_RETURN_IF_ERROR(JoinRecurse(ea.id, na.level() - 1, b_id,
                                        nb.level(), depth + 1, ctx));
      }
    }
    return Status::OK();
  }
  if (!nb.IsLeaf() && (na.IsLeaf() || nb.level() > na.level())) {
    na.BoundingRectInto(&slot.bound);
    const spatial::Rect& ta = Mapped(map_a, slot.bound, &slot.mapped_a, &tally);
    for (const Entry& eb : nb) {
      if (!ctx->keep_going) return Status::OK();
      if (ctx->may_join(ta, Mapped(map_b, eb.rect, &slot.mapped_b, &tally))) {
        TSQ_RETURN_IF_ERROR(JoinRecurse(a_id, na.level(), eb.id,
                                        nb.level() - 1, depth + 1, ctx));
      }
    }
    return Status::OK();
  }

  // Same internal level on both sides: descend qualifying entry pairs.
  for (const Entry& ea : na) {
    const spatial::Rect& ta = Mapped(map_a, ea.rect, &slot.mapped_a, &tally);
    for (const Entry& eb : nb) {
      if (!ctx->keep_going) return Status::OK();
      if (ctx->may_join(ta, Mapped(map_b, eb.rect, &slot.mapped_b, &tally))) {
        TSQ_RETURN_IF_ERROR(JoinRecurse(ea.id, na.level() - 1, eb.id,
                                        nb.level() - 1, depth + 1, ctx));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<RStarTree::JoinSeed>> RStarTree::JoinSeeds(
    const RStarTree& other, const spatial::AffineMap* map,
    const spatial::AffineMap* other_map,
    const JoinPredicate& may_join) const {
  if (dims() != other.dims()) {
    return Status::InvalidArgument("join between trees of different dims");
  }
  std::vector<JoinSeed> seeds;
  if (size_ == 0 || other.size() == 0) return seeds;

  JoinSlot slot;
  const NodeBuffer& na = slot.a;
  const NodeBuffer& nb = slot.b;
  TSQ_RETURN_IF_ERROR(ReadNode(root_, kAnyLevel, &slot.a));
  TSQ_RETURN_IF_ERROR(other.ReadNode(other.root_, kAnyLevel, &slot.b));
  if (na.IsLeaf() || nb.IsLeaf() || na.level() != nb.level()) {
    // Nothing to split: run the whole descent as one task.
    seeds.push_back(JoinSeed{root_, other.root_});
    return seeds;
  }

  // Mirror JoinRecurse's same-level branch exactly: the qualifying
  // (ea, eb) child pairs, in (ea, eb) iteration order, are the recursion
  // roots the descent from {root, root} visits — so JoinFrom over these
  // seeds in order reproduces its candidate sequence.
  NodeTally tally;
  for (const Entry& ea : na) {
    const spatial::Rect& ta = Mapped(map, ea.rect, &slot.mapped_a, &tally);
    for (const Entry& eb : nb) {
      if (may_join(ta, Mapped(other_map, eb.rect, &slot.mapped_b, &tally))) {
        seeds.push_back(
            JoinSeed{ea.id, eb.id, na.level() - 1, nb.level() - 1});
      }
    }
  }
  return seeds;
}

Status RStarTree::JoinFrom(const JoinSeed& seed, const RStarTree& other,
                           const spatial::AffineMap* map,
                           const spatial::AffineMap* other_map,
                           const JoinPredicate& may_join,
                           const JoinCallback& emit) const {
  JoinContext ctx{other, map, other_map, may_join, emit};
  return JoinRecurse(seed.a, seed.a_level, seed.b, seed.b_level, 0, &ctx);
}

// ---------------------------------------------------------------------------
// Nearest neighbors
// ---------------------------------------------------------------------------

Status RStarTree::NearestNeighborsStream(const NnMetric& metric,
                                         const spatial::AffineMap* map,
                                         const NnCallback& emit) const {
  if (size_ == 0) return Status::OK();

  // Best-first search: a min-heap of nodes and leaf entries keyed by
  // MINDIST under `metric`. When an entry surfaces, its lower bound is
  // exact for the indexed point (degenerate rect) and no unexplored item
  // can beat it, so emission order is correct. A node surfaces to the
  // caller before it is read, so a caller that stops there never pays
  // for the page.
  struct Item {
    double dist_sq;
    bool is_entry;
    uint32_t level;  // a node item's expected level (see ReadNode)
    uint64_t id;     // data id or child page id
  };
  auto cmp = [](const Item& a, const Item& b) { return a.dist_sq > b.dist_sq; };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);
  heap.push(Item{0.0, false, kAnyLevel, root_});

  // Storage reused across the whole descent: the decoded node, its
  // entries' mapped MBRs (only when a map is active; grown, never
  // shrunk), the pointer batch handed to the metric, and the bounds it
  // fills in.
  NodeBuffer node;
  std::vector<spatial::Rect> mapped;
  std::vector<const spatial::Rect*> batch;
  std::vector<double> bounds;

  while (!heap.empty()) {
    const Item item = heap.top();
    heap.pop();
    const std::optional<uint64_t> id =
        item.is_entry ? std::optional<uint64_t>(item.id) : std::nullopt;
    if (!emit(id, item.dist_sq)) return Status::OK();
    if (item.is_entry) continue;
    TSQ_RETURN_IF_ERROR(ReadNode(item.id, item.level, &node));
    const size_t count = node.size();
    NodeTally tally;
    batch.resize(count);
    bounds.resize(count);
    if (map != nullptr) {
      if (mapped.size() < count) mapped.resize(count);
      for (size_t i = 0; i < count; ++i) {
        map->ApplyInto(node[i].rect, &mapped[i]);
        batch[i] = &mapped[i];
      }
      tally.transforms = count;
    } else {
      for (size_t i = 0; i < count; ++i) batch[i] = &node[i].rect;
    }
    metric.MinDistSquaredBatch(batch.data(), count, bounds.data());
    if (node.IsLeaf()) tally.leaf_tests = count;
    const uint32_t child_level = node.level() - 1;  // unused for leaves
    for (size_t i = 0; i < count; ++i) {
      heap.push(Item{bounds[i], node.IsLeaf(), child_level, node[i].id});
    }
  }
  return Status::OK();
}

Status RStarTree::NearestNeighbors(const NnMetric& metric, size_t k,
                                   const spatial::AffineMap* map,
                                   std::vector<NnResult>* out) const {
  TSQ_CHECK(out != nullptr);
  out->clear();
  if (k == 0) return Status::OK();
  return NearestNeighborsStream(
      metric, map, [out, k](std::optional<uint64_t> id, double dist_sq) {
        if (!id.has_value()) return true;  // a node: read it
        out->push_back(NnResult{*id, std::sqrt(dist_sq)});
        return out->size() < k;
      });
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

Result<CheckReport> RStarTree::CheckInvariants() const {
  CheckReport report;
  TSQ_RETURN_IF_ERROR(CheckRecurse(root_, height_ - 1, true, &report));
  if (report.ok && report.leaf_entries != size_) {
    report.ok = false;
    report.message = "size() = " + std::to_string(size_) +
                     " but tree holds " + std::to_string(report.leaf_entries) +
                     " leaf entries";
  }
  return report;
}

Status RStarTree::CheckRecurse(PageId node_id, uint32_t expected_level,
                               bool is_root, CheckReport* report) const {
  if (!report->ok) return Status::OK();
  TSQ_ASSIGN_OR_RETURN(Node node, LoadNode(node_id));

  if (node.level != expected_level) {
    report->ok = false;
    report->message = "node " + std::to_string(node_id) + " at level " +
                      std::to_string(node.level) + ", expected " +
                      std::to_string(expected_level);
    return Status::OK();
  }
  if (node.entries.size() > max_entries_) {
    report->ok = false;
    report->message = "node " + std::to_string(node_id) + " overfull";
    return Status::OK();
  }
  if (!is_root && node.entries.size() < min_fill_) {
    report->ok = false;
    report->message = "node " + std::to_string(node_id) + " underfull: " +
                      std::to_string(node.entries.size()) + " < " +
                      std::to_string(min_fill_);
    return Status::OK();
  }
  if (is_root && !node.IsLeaf() && node.entries.size() < 2) {
    report->ok = false;
    report->message = "internal root with fewer than 2 children";
    return Status::OK();
  }

  if (node.IsLeaf()) {
    report->leaf_entries += node.entries.size();
    return Status::OK();
  }
  for (const Entry& e : node.entries) {
    TSQ_ASSIGN_OR_RETURN(Node child, LoadNode(e.id));
    if (child.entries.empty()) {
      report->ok = false;
      report->message = "empty child node " + std::to_string(e.id);
      return Status::OK();
    }
    if (!(child.BoundingRect() == e.rect)) {
      report->ok = false;
      report->message = "stale parent MBR for child " + std::to_string(e.id);
      return Status::OK();
    }
    TSQ_RETURN_IF_ERROR(CheckRecurse(e.id, expected_level - 1, false, report));
    if (!report->ok) return Status::OK();
  }
  return Status::OK();
}

}  // namespace rtree
}  // namespace tsq
