// Copyright (c) 2026 The tsq Authors.
//
// Node split. The paper builds on "Norbert Beckmann's Version 2
// implementation of the R*-tree" [BKSS90]; tsq splits overfull nodes with
// the R* topological split, the only one the paper's experiments use.

#ifndef TSQ_RTREE_SPLIT_H_
#define TSQ_RTREE_SPLIT_H_

#include <vector>

#include "rtree/entry.h"

namespace tsq {
namespace rtree {

/// Outcome of splitting an overfull entry set into two groups. Both groups
/// respect the min_fill lower bound.
struct SplitResult {
  std::vector<Entry> left;
  std::vector<Entry> right;
};

/// R* split: choose the split axis by minimum total margin over all
/// min_fill-respecting distributions of entries sorted by lower then upper
/// bound; on that axis choose the distribution with minimum overlap, ties
/// broken by minimum combined area. Requires entries.size() >= 2 and
/// 1 <= min_fill <= entries.size() / 2.
SplitResult RStarSplit(std::vector<Entry> entries, size_t min_fill);

}  // namespace rtree
}  // namespace tsq

#endif  // TSQ_RTREE_SPLIT_H_
