// Copyright (c) 2026 The tsq Authors.
//
// Model-based fuzz test for STR packing, the one way an R*-tree is
// written. Each seed bulk-loads a run of random trees — sizes from 0 up,
// random dims, first tiled dim and fanout, duplicate entries and
// rectangle entries among the points — and checks each one against an
// exact in-memory reference: structural invariants, range and
// transformed range search, and the full kNN stream, both right after
// the load and after the page file is reopened. Parameterized over seeds
// so ctest runs many independent trees.

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "rtree/rstar_tree.h"
#include "spatial/affine_map.h"
#include "spatial/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace tsq {
namespace rtree {
namespace {

using spatial::AffineMap;
using spatial::Point;
using spatial::Rect;
using tsq::testing::TempDir;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kTreesPerSeed = 8;

/// Euclidean MINDIST from a fixed point.
class EuclideanMetric final : public NnMetric {
 public:
  explicit EuclideanMetric(Point q) : q_(std::move(q)) {}
  double MinDistSquared(const Rect& rect) const override {
    return spatial::MinDistSquared(q_, rect);
  }

 private:
  Point q_;
};

/// One random tree's shape and its entries (entries[i] has id i).
struct TreeCase {
  size_t dims = 0;
  size_t first_tiled_dim = 0;
  size_t fanout = 0;
  std::vector<Rect> entries;
};

Point ClusteredPoint(Rng* rng, size_t dims) {
  Point p(dims);
  for (double& v : p) {
    v = 10.0 * static_cast<double>(rng->UniformInt(0, 4)) +
        rng->Uniform(0.0, 10.0);
  }
  return p;
}

TreeCase RandomCase(Rng* rng, bool empty) {
  TreeCase c;
  c.dims = static_cast<size_t>(rng->UniformInt(1, 6));
  c.first_tiled_dim =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(c.dims) - 1));
  c.fanout = static_cast<size_t>(rng->UniformInt(4, 12));
  // Sizes around the boundaries where STR's recursion changes shape as
  // well as small and large trees.
  size_t count = 0;
  if (!empty) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        count = static_cast<size_t>(rng->UniformInt(1, 3));
        break;
      case 1:
        count = c.fanout + static_cast<size_t>(rng->UniformInt(-1, 1));
        break;
      case 2:
        count = static_cast<size_t>(rng->UniformInt(1, 200));
        break;
      default:
        count = static_cast<size_t>(rng->UniformInt(200, 1500));
        break;
    }
  }
  for (size_t i = 0; i < count; ++i) {
    const double dice = rng->NextDouble();
    if (dice < 0.15 && !c.entries.empty()) {
      // A duplicate of an earlier entry under a new id.
      c.entries.push_back(c.entries[static_cast<size_t>(rng->UniformInt(
          0, static_cast<int64_t>(c.entries.size()) - 1))]);
    } else if (dice < 0.4) {
      Point lo = ClusteredPoint(rng, c.dims);
      Point hi = lo;
      for (double& v : hi) v += rng->Uniform(0.0, 5.0);
      c.entries.emplace_back(std::move(lo), std::move(hi));
    } else {
      c.entries.push_back(Rect::FromPoint(ClusteredPoint(rng, c.dims)));
    }
  }
  return c;
}

/// A random query box; with `untiled_unbounded`, the dims below the
/// first tiled dim span everything, as a query without a mean/std
/// window does on tsq's index.
Rect RandomQuery(Rng* rng, const TreeCase& c, bool untiled_unbounded) {
  Rect query = tsq::testing::RandomRect(rng, c.dims, 0.0, 55.0);
  if (untiled_unbounded) {
    for (size_t d = 0; d < c.first_tiled_dim; ++d) {
      query.SetDim(d, -kInf, kInf);
    }
  }
  return query;
}

std::set<uint64_t> SearchIds(const RStarTree& tree, const Rect& query,
                             const AffineMap* map) {
  std::set<uint64_t> ids;
  const auto collect = [&ids](uint64_t id, const Rect&) {
    ids.insert(id);
    return true;
  };
  const Status status = map == nullptr
                            ? tree.Search(query, collect)
                            : tree.SearchTransformed(*map, query, collect);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return ids;
}

/// Checks `tree` against the reference `c`: size and invariants, range
/// and transformed range answers, and the whole kNN stream.
void CheckAgainstModel(const RStarTree& tree, const TreeCase& c, Rng* rng) {
  ASSERT_EQ(tree.size(), c.entries.size());
  ASSERT_EQ(tree.dims(), c.dims);
  auto report = tree.CheckInvariants();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->ok) << report->message;
  EXPECT_EQ(report->leaf_entries, c.entries.size());

  for (int q = 0; q < 4; ++q) {
    const Rect query = RandomQuery(rng, c, q % 2 == 1);
    std::set<uint64_t> expected;
    for (uint64_t id = 0; id < c.entries.size(); ++id) {
      if (query.Intersects(c.entries[id])) expected.insert(id);
    }
    ASSERT_EQ(SearchIds(tree, query, nullptr), expected) << "query " << q;

    std::vector<double> scale(c.dims);
    std::vector<double> offset(c.dims);
    for (size_t d = 0; d < c.dims; ++d) {
      scale[d] = rng->Uniform(-2.0, 2.0);
      offset[d] = rng->Uniform(-10.0, 10.0);
    }
    const AffineMap map(scale, offset);
    const Rect mapped_query =
        tsq::testing::RandomRect(rng, c.dims, -60.0, 60.0);
    expected.clear();
    for (uint64_t id = 0; id < c.entries.size(); ++id) {
      if (mapped_query.Intersects(map.Apply(c.entries[id]))) {
        expected.insert(id);
      }
    }
    ASSERT_EQ(SearchIds(tree, mapped_query, &map), expected)
        << "transformed query " << q;
  }

  // The kNN stream surfaces every entry once, in ascending bound order,
  // each with its own MINDIST.
  const EuclideanMetric metric(ClusteredPoint(rng, c.dims));
  std::vector<std::pair<double, uint64_t>> streamed;
  double last = 0.0;
  bool ordered = true;
  ASSERT_TRUE(tree.NearestNeighborsStream(
                      metric, nullptr,
                      [&](std::optional<uint64_t> id, double bound) {
                        ordered = ordered && bound >= last;
                        last = bound;
                        if (id.has_value()) streamed.emplace_back(bound, *id);
                        return true;
                      })
                  .ok());
  EXPECT_TRUE(ordered);
  std::vector<std::pair<double, uint64_t>> brute;
  for (uint64_t id = 0; id < c.entries.size(); ++id) {
    brute.emplace_back(metric.MinDistSquared(c.entries[id]), id);
  }
  std::sort(streamed.begin(), streamed.end());
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(streamed, brute);
}

class RTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RTreeFuzzTest, RandomTreesMatchReferenceModel) {
  Rng rng(GetParam());
  TempDir dir;
  for (int trial = 0; trial < kTreesPerSeed; ++trial) {
    const TreeCase c = RandomCase(&rng, /*empty=*/trial == 0);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(c.entries.size()) + " entries, dims " +
                 std::to_string(c.dims) + ", first tiled dim " +
                 std::to_string(c.first_tiled_dim) + ", fanout " +
                 std::to_string(c.fanout));
    const std::string path = dir.file("fuzz" + std::to_string(trial));
    RTreeOptions options;
    options.max_entries_override = c.fanout;
    PageId meta = kInvalidPageId;
    {
      auto file = PageFile::Create(path).value();
      BufferPool pool(file.get(), 64);
      auto tree = tsq::testing::BulkLoadTree(&pool, c.dims, c.entries,
                                             c.fanout, c.first_tiled_dim);
      CheckAgainstModel(*tree, c, &rng);
      meta = tree->meta_page();
      ASSERT_TRUE(file->Sync().ok());  // the header's page count
    }
    // Reopened through a fresh pool, the tree reads back unchanged.
    auto file = PageFile::Open(path).value();
    BufferPool pool(file.get(), 64);
    auto tree = RStarTree::Open(&pool, meta, options).value();
    CheckAgainstModel(*tree, c, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace rtree
}  // namespace tsq
