// Copyright (c) 2026 The tsq Authors.
//
// In-memory R-tree nodes and their on-page serialization.
//
// Page layout (little-endian):
//   u32 magic 'TSQN' | u32 level | u32 count | u32 reserved
//   count * entry, entry = dims * (f64 lo) | dims * (f64 hi) | u64 id
//
// level 0 is a leaf. Node capacity is derived from the page size and the
// tree dimensionality; the same formula determines the paper's branching
// factors for its 6-D index over 4 KiB pages.

#ifndef TSQ_RTREE_NODE_H_
#define TSQ_RTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rtree/entry.h"
#include "spatial/rect.h"
#include "storage/page.h"

namespace tsq {
namespace rtree {

/// Deserialized R-tree node.
struct Node {
  PageId id = kInvalidPageId;
  uint32_t level = 0;  ///< 0 = leaf; root has the highest level
  std::vector<Entry> entries;

  bool IsLeaf() const { return level == 0; }

  /// Union of all entry rectangles. Requires a non-empty node.
  spatial::Rect BoundingRect() const;
};

/// Decoded node storage that a read-only traversal owns and reuses — one
/// per recursion depth. DecodeNode overwrites the entries a previous
/// decode left instead of building new ones: the entry array is reserved
/// at node capacity on first use and each entry keeps its rectangle's
/// coordinate buffers, so a node with fewer entries than its predecessor
/// frees nothing and a descent over cached pages allocates only when a
/// depth first sees a given entry slot. Only the first size() entries are
/// readable; after a failed decode size() is 0.
class NodeBuffer {
 public:
  uint32_t level() const { return level_; }  ///< 0 = leaf
  bool IsLeaf() const { return level_ == 0; }

  /// The decoded entries, [begin(), end()).
  size_t size() const { return size_; }
  const Entry* begin() const { return slots_.data(); }
  const Entry* end() const { return slots_.data() + size_; }
  const Entry& operator[](size_t i) const { return slots_[i]; }

  /// Writes the union of the entry rectangles into `out`, reusing its
  /// storage. Requires a non-empty node.
  void BoundingRectInto(spatial::Rect* out) const;

 private:
  friend Status DecodeNode(const Page& page, size_t dims, NodeBuffer* out);

  uint32_t level_ = 0;
  size_t size_ = 0;
  size_t dims_ = 0;
  std::vector<Entry> slots_;  // constructed slots; may exceed size_
};

/// Maximum entries per node for a given page size and dimensionality.
size_t NodeCapacity(size_t page_size, size_t dims);

/// Serializes `node` into `page`. Fails with InvalidArgument when the node
/// exceeds capacity or an entry has the wrong dimensionality.
Status SerializeNode(const Node& node, size_t dims, Page* page);

/// Parses `page` into `node` (id is left untouched: the caller knows the
/// page id). Fails with Corruption on malformed bytes, including an MBR
/// interval that is inverted or has a NaN bound.
Status DeserializeNode(const Page& page, size_t dims, Node* node);

/// DeserializeNode into reusable storage: the same checks, no allocation
/// once `out` has seen a node at least this large (see NodeBuffer).
Status DecodeNode(const Page& page, size_t dims, NodeBuffer* out);

}  // namespace rtree
}  // namespace tsq

#endif  // TSQ_RTREE_NODE_H_
