// Copyright (c) 2026 The tsq Authors.
//
// The R* node split [BKSS90]: a pure function from an overfull entry set
// to two groups.

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "rtree/split.h"

namespace tsq {
namespace rtree {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

spatial::Rect BoundingRectOf(const std::vector<Entry>& entries, size_t from,
                             size_t to) {
  TSQ_DCHECK(from < to && to <= entries.size());
  spatial::Rect mbr = entries[from].rect;
  for (size_t i = from + 1; i < to; ++i) mbr.ExpandToInclude(entries[i].rect);
  return mbr;
}

void ValidateSplitArgs(const std::vector<Entry>& entries, size_t min_fill) {
  TSQ_CHECK_MSG(entries.size() >= 2, "cannot split %zu entries",
                entries.size());
  TSQ_CHECK_MSG(min_fill >= 1 && 2 * min_fill <= entries.size(),
                "min_fill %zu invalid for %zu entries", min_fill,
                entries.size());
}

}  // namespace

SplitResult RStarSplit(std::vector<Entry> entries, size_t min_fill) {
  ValidateSplitArgs(entries, min_fill);
  const size_t total = entries.size();
  const size_t dims = entries[0].rect.dims();
  const size_t num_dists = total - 2 * min_fill + 1;

  // Phase 1 — ChooseSplitAxis: for every axis, consider entries sorted by
  // lower and by upper bound; sum the margins of all distributions; pick the
  // axis with the smallest total margin ("margin-value" S in [BKSS90]).
  size_t best_axis = 0;
  bool best_axis_by_upper = false;
  double best_axis_margin = kInf;

  auto sort_by = [&entries](size_t axis, bool by_upper) {
    std::sort(entries.begin(), entries.end(),
              [axis, by_upper](const Entry& a, const Entry& b) {
                const double ka = by_upper ? a.rect.hi(axis) : a.rect.lo(axis);
                const double kb = by_upper ? b.rect.hi(axis) : b.rect.lo(axis);
                if (ka != kb) return ka < kb;
                // Secondary key keeps the sort deterministic.
                return (by_upper ? a.rect.lo(axis) : a.rect.hi(axis)) <
                       (by_upper ? b.rect.lo(axis) : b.rect.hi(axis));
              });
  };

  for (size_t axis = 0; axis < dims; ++axis) {
    for (const bool by_upper : {false, true}) {
      sort_by(axis, by_upper);
      double margin_sum = 0.0;
      for (size_t k = 0; k < num_dists; ++k) {
        const size_t left_count = min_fill + k;
        margin_sum += BoundingRectOf(entries, 0, left_count).Margin() +
                      BoundingRectOf(entries, left_count, total).Margin();
      }
      if (margin_sum < best_axis_margin) {
        best_axis_margin = margin_sum;
        best_axis = axis;
        best_axis_by_upper = by_upper;
      }
    }
  }

  // Phase 2 — ChooseSplitIndex on the winning axis/sort: minimize overlap,
  // ties by minimum combined area.
  sort_by(best_axis, best_axis_by_upper);
  double best_overlap = kInf;
  double best_area = kInf;
  size_t best_left_count = min_fill;
  for (size_t k = 0; k < num_dists; ++k) {
    const size_t left_count = min_fill + k;
    const spatial::Rect left = BoundingRectOf(entries, 0, left_count);
    const spatial::Rect right = BoundingRectOf(entries, left_count, total);
    const double overlap = left.IntersectionArea(right);
    const double area = left.Area() + right.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_left_count = left_count;
    }
  }

  SplitResult out;
  out.left.assign(entries.begin(),
                  entries.begin() + static_cast<ptrdiff_t>(best_left_count));
  out.right.assign(entries.begin() + static_cast<ptrdiff_t>(best_left_count),
                   entries.end());
  return out;
}

}  // namespace rtree
}  // namespace tsq
