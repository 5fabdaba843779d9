// Copyright (c) 2026 The tsq Authors.
//
// Epoch-published index snapshots: the read half of the v4 index
// concurrency contract (docs/ARCHITECTURE.md). A snapshot pairs the
// immutable main R*-tree with the mutable delta index that continues it;
// Database publishes snapshots through a single
// std::atomic<std::shared_ptr<const IndexSnapshot>>. A query loads the
// pointer once (acquire), reads the delta watermark once, and then runs
// entirely against that frozen view — no lock, no epoch can be yanked
// out from under it, and the shared_ptr refcount is the grace period: a
// merge that publishes a successor epoch cannot reclaim the old tree
// while any in-flight query still pins it.

#ifndef TSQ_CORE_INDEX_SNAPSHOT_H_
#define TSQ_CORE_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "core/delta_index.h"
#include "core/k_index.h"

namespace tsq {

/// One published index epoch. Immutable once stored in the database's
/// snapshot pointer, except that `delta` keeps absorbing Puts — readers
/// bound their view by reading the delta watermark once (IndexView).
struct IndexSnapshot {
  uint64_t epoch = 0;

  /// The immutable main R*-tree, covering ids [0, main->size()).
  std::shared_ptr<KIndex> main;

  /// The live delta, covering ids [delta->base(), ...) where
  /// delta->base() == main->size(). Never null once a snapshot is
  /// published.
  std::shared_ptr<DeltaIndex> delta;
};

/// A query's frozen view of one snapshot: the main tree plus the delta
/// slots [0, delta_size()) that were visible when the view was taken.
/// Cheap to copy; does not own the snapshot — the caller keeps the
/// shared_ptr pinned for the view's lifetime. Implicitly constructible
/// from a bare KIndex so pre-epoch call sites (tests, tools) can pass a
/// tree directly as an all-main view.
class IndexView {
 public:
  /// Whole-index view with no delta (legacy call sites).
  IndexView(const KIndex& main)  // NOLINT: implicit by design
      : main_(&main) {}

  explicit IndexView(const IndexSnapshot& snap)
      : main_(snap.main.get()),
        delta_(snap.delta.get()),
        size_(snap.delta ? snap.delta->visible() : 0) {}

  const KIndex& main() const { return *main_; }

  /// True when the view includes unmerged delta entries.
  bool has_delta() const { return size_ > 0; }

  const DeltaIndex& delta() const { return *delta_; }

  /// Number of delta entries in view: slots [0, delta_size()).
  uint64_t delta_size() const { return size_; }

  /// Total series answerable from this view: the main tree's entries
  /// plus the delta range. Ids are dense, so this is also one past the
  /// highest visible id.
  uint64_t total_series() const { return main_->size() + size_; }

 private:
  const KIndex* main_ = nullptr;
  const DeltaIndex* delta_ = nullptr;
  uint64_t size_ = 0;
};

}  // namespace tsq

#endif  // TSQ_CORE_INDEX_SNAPSHOT_H_
