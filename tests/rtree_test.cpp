// Copyright (c) 2026 The tsq Authors.
//
// Tests for the R*-tree: node serialization, STR packing's structural
// invariants, exact agreement with brute force for range and NN queries,
// on-the-fly transformed search (Algorithm 1/2), persistence, and
// Corruption from every descent over a hostile page. Every tree is
// written the one way a tree is, by BulkLoad (tests/test_util.h's
// BulkLoadTree), with a small fanout so that a few hundred entries make
// a multi-level tree.

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "rtree/node.h"
#include "rtree/rstar_tree.h"
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
using tsq::testing::BulkLoadTree;
using tsq::testing::IndexDelta;
using tsq::testing::RandomPoint;
using tsq::testing::TempDir;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Node serialization
// ---------------------------------------------------------------------------

TEST(NodeTest, CapacityFormula) {
  // 4096-byte pages, 6 dims: (4096 - 16) / (16*6 + 8) = 39 entries.
  EXPECT_EQ(NodeCapacity(4096, 6), 39u);
  EXPECT_EQ(NodeCapacity(4096, 2), 102u);
  EXPECT_GE(NodeCapacity(4096, 20), 4u);
  EXPECT_EQ(NodeCapacity(8, 2), 0u);
}

TEST(NodeTest, SerializeDeserializeRoundTrip) {
  const size_t dims = 3;
  Node node;
  node.level = 2;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    Entry e;
    e.rect = tsq::testing::RandomRect(&rng, dims);
    e.id = 1000 + i;
    node.entries.push_back(e);
  }
  Page page(4096);
  ASSERT_TRUE(SerializeNode(node, dims, &page).ok());
  Node back;
  ASSERT_TRUE(DeserializeNode(page, dims, &back).ok());
  EXPECT_EQ(back.level, 2u);
  ASSERT_EQ(back.entries.size(), node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].rect, node.entries[i].rect);
    EXPECT_EQ(back.entries[i].id, node.entries[i].id);
  }
}

TEST(NodeTest, SerializeRejectsOverfullNode) {
  const size_t dims = 6;
  Node node;
  node.level = 0;
  for (size_t i = 0; i < NodeCapacity(4096, dims) + 1; ++i) {
    Entry e;
    e.rect = Rect::FromPoint(Point(dims, 0.0));
    node.entries.push_back(e);
  }
  Page page(4096);
  EXPECT_TRUE(SerializeNode(node, dims, &page).IsInvalidArgument());
}

TEST(NodeTest, DeserializeRejectsGarbage) {
  Page page(4096);
  Node node;
  EXPECT_TRUE(DeserializeNode(page, 3, &node).IsCorruption());
}

Node RandomNode(Rng* rng, size_t dims, size_t count, uint32_t level,
                uint64_t first_id) {
  Node node;
  node.level = level;
  for (size_t i = 0; i < count; ++i) {
    node.entries.push_back(
        Entry{tsq::testing::RandomRect(rng, dims), first_id + i});
  }
  return node;
}

// Overwrites coordinate `d` of entry `index`'s lo corner with a NaN, which
// no Rect can hold and which fails no `lo > hi` test.
void PoisonLo(Page* page, size_t dims, size_t index, size_t d) {
  const size_t off = 16 + index * (16 * dims + 8) + 8 * d;
  page->WriteU64(off, std::bit_cast<uint64_t>(
                          std::numeric_limits<double>::quiet_NaN()));
}

TEST(NodeTest, DeserializeRejectsNaNInterval) {
  const size_t dims = 3;
  Rng rng(31);
  Page page(4096);
  ASSERT_TRUE(SerializeNode(RandomNode(&rng, dims, 10, 0, 0), dims, &page)
                  .ok());
  PoisonLo(&page, dims, 4, 1);
  Node node;
  EXPECT_TRUE(DeserializeNode(page, dims, &node).IsCorruption());
  NodeBuffer buffer;
  EXPECT_TRUE(DecodeNode(page, dims, &buffer).IsCorruption());
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(NodeTest, DecodeReusesStorageAcrossNodes) {
  // One buffer decodes a full node, a smaller node, a corrupt page and a
  // full node again, as one depth of a descent does: each decode exposes
  // exactly its own entries (none of a larger predecessor), a failed
  // decode exposes none, and the storage the first decode set up is
  // reused rather than reallocated.
  const size_t dims = 6;
  const size_t capacity = NodeCapacity(4096, dims);
  Rng rng(32);
  NodeBuffer buffer;
  auto expect_decodes_to = [&](const Node& node) {
    Page page(4096);
    ASSERT_TRUE(SerializeNode(node, dims, &page).ok());
    ASSERT_TRUE(DecodeNode(page, dims, &buffer).ok());
    EXPECT_EQ(buffer.level(), node.level);
    ASSERT_EQ(buffer.size(), node.entries.size());
    ASSERT_EQ(buffer.end() - buffer.begin(),
              static_cast<ptrdiff_t>(node.entries.size()));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      EXPECT_EQ(buffer[i].rect, node.entries[i].rect) << i;
      EXPECT_EQ(buffer[i].id, node.entries[i].id) << i;
    }
  };

  expect_decodes_to(RandomNode(&rng, dims, capacity, 2, 100));
  const Entry* slots = buffer.begin();
  const double* coords = buffer[0].rect.lo().data();
  expect_decodes_to(RandomNode(&rng, dims, 5, 0, 200));

  // The NaN sits in the last entry, so the failed decode has already
  // overwritten every earlier slot before it is rejected.
  Page corrupt(4096);
  ASSERT_TRUE(SerializeNode(RandomNode(&rng, dims, capacity, 1, 300), dims,
                            &corrupt)
                  .ok());
  PoisonLo(&corrupt, dims, capacity - 1, dims - 1);
  EXPECT_TRUE(DecodeNode(corrupt, dims, &buffer).IsCorruption());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.begin(), buffer.end());
  EXPECT_TRUE(DecodeNode(Page(4096), dims, &buffer).IsCorruption());
  EXPECT_EQ(buffer.size(), 0u);

  expect_decodes_to(RandomNode(&rng, dims, capacity, 1, 400));
  expect_decodes_to(RandomNode(&rng, dims, 1, 0, 500));
  EXPECT_EQ(buffer.begin(), slots);
  EXPECT_EQ(buffer[0].rect.lo().data(), coords);
}

TEST(NodeTest, BoundingRectCoversAllEntries) {
  Node node;
  node.level = 0;
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    Entry e;
    e.rect = tsq::testing::RandomRect(&rng, 4);
    node.entries.push_back(e);
  }
  const Rect mbr = node.BoundingRect();
  for (const Entry& e : node.entries) {
    EXPECT_TRUE(mbr.Contains(e.rect.lo()) && mbr.Contains(e.rect.hi()));
  }
}

// ---------------------------------------------------------------------------
// Tree fixture
// ---------------------------------------------------------------------------

// Fanout of the fixture's trees: 500 points make a tree four levels deep.
constexpr size_t kFanout = 8;

class RTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pf = PageFile::Create(dir_.file("tree.pages"));
    ASSERT_TRUE(pf.ok());
    file_ = std::move(*pf);
    pool_ = std::make_unique<BufferPool>(file_.get(), 128);
  }

  // `count` uniform points in [lo, hi]^dims, and a tree over them.
  std::unique_ptr<RStarTree> LoadRandom(size_t dims, uint64_t count,
                                        Rng* rng, double lo, double hi,
                                        std::vector<Point>* points) {
    for (uint64_t i = 0; i < count; ++i) {
      points->push_back(RandomPoint(rng, dims, lo, hi));
    }
    return BulkLoadTree(pool_.get(), dims, *points, kFanout);
  }

  TempDir dir_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(RTreeTest, EmptyTreeBasics) {
  auto tree = BulkLoadTree(pool_.get(), 2, std::vector<Point>{}, kFanout);
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  int hits = 0;
  ASSERT_TRUE(tree->Search(Rect({-1e9, -1e9}, {1e9, 1e9}),
                           [&hits](uint64_t, const Rect&) {
                             ++hits;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(hits, 0);
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;
}

TEST_F(RTreeTest, SearchMatchesBruteForce) {
  const size_t dims = 3;
  Rng rng(11);
  std::vector<Point> points;
  auto tree = LoadRandom(dims, 500, &rng, 0.0, 100.0, &points);
  EXPECT_EQ(tree->size(), 500u);
  EXPECT_GT(tree->height(), 1u);

  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;

  for (int q = 0; q < 25; ++q) {
    Rect query = tsq::testing::RandomRect(&rng, dims, 0.0, 100.0);
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < points.size(); ++i) {
      if (query.Contains(points[i])) expected.insert(i);
    }
    std::set<uint64_t> actual;
    ASSERT_TRUE(tree->Search(query,
                             [&actual](uint64_t id, const Rect&) {
                               actual.insert(id);
                               return true;
                             })
                    .ok());
    EXPECT_EQ(actual, expected) << "query " << query.ToString();
  }
}

TEST_F(RTreeTest, RectangleEntriesSearch) {
  // Rect (non-point) data: overlap semantics.
  const size_t dims = 2;
  Rng rng(12);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 300; ++i) {
    Point lo = RandomPoint(&rng, dims, 0.0, 90.0);
    Point hi = lo;
    for (size_t d = 0; d < dims; ++d) hi[d] += rng.Uniform(0.0, 10.0);
    rects.emplace_back(lo, hi);
  }
  auto tree = BulkLoadTree(pool_.get(), dims, rects, kFanout);
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;
  for (int q = 0; q < 20; ++q) {
    Rect query = tsq::testing::RandomRect(&rng, dims, 0.0, 100.0);
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < rects.size(); ++i) {
      if (query.Intersects(rects[i])) expected.insert(i);
    }
    std::set<uint64_t> actual;
    ASSERT_TRUE(tree->Search(query,
                             [&actual](uint64_t id, const Rect&) {
                               actual.insert(id);
                               return true;
                             })
                    .ok());
    EXPECT_EQ(actual, expected);
  }
}

TEST_F(RTreeTest, DuplicatePointsAreAllRetrievable) {
  auto tree = BulkLoadTree(pool_.get(), 2,
                           std::vector<Point>(50, Point{5.0, 5.0}), kFanout);
  std::set<uint64_t> actual;
  ASSERT_TRUE(tree->Search(Rect({4.0, 4.0}, {6.0, 6.0}),
                           [&actual](uint64_t id, const Rect&) {
                             actual.insert(id);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(actual.size(), 50u);
  auto check = tree->CheckInvariants();
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->ok) << check->message;
}

TEST_F(RTreeTest, SearchEarlyStop) {
  Rng rng(13);
  std::vector<Point> points;
  auto tree = LoadRandom(2, 100, &rng, 0.0, 10.0, &points);
  int emitted = 0;
  ASSERT_TRUE(tree->Search(Rect({0.0, 0.0}, {10.0, 10.0}),
                           [&emitted](uint64_t, const Rect&) {
                             ++emitted;
                             return emitted < 5;
                           })
                  .ok());
  EXPECT_EQ(emitted, 5);
}

// --- transformed search -----------------------------------------------------

TEST_F(RTreeTest, TransformedSearchMatchesBruteForce) {
  // Algorithm 1/2: searching the transformed index == searching the
  // transformed points.
  const size_t dims = 2;
  Rng rng(16);
  std::vector<Point> points;
  auto tree = LoadRandom(dims, 300, &rng, -50.0, 50.0, &points);
  for (int q = 0; q < 20; ++q) {
    AffineMap map({rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)},
                  {rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0)});
    Rect query = tsq::testing::RandomRect(&rng, dims, -100.0, 100.0);
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < points.size(); ++i) {
      if (query.Contains(map.Apply(points[i]))) expected.insert(i);
    }
    std::set<uint64_t> actual;
    ASSERT_TRUE(tree->SearchTransformed(map, query,
                                        [&actual](uint64_t id, const Rect&) {
                                          actual.insert(id);
                                          return true;
                                        })
                    .ok());
    EXPECT_EQ(actual, expected);
  }
}

TEST_F(RTreeTest, IdentityTransformEqualsPlainSearch) {
  // The Figure 8/9 premise: the identity transformation gives the same
  // answers (and visits the same nodes) as the plain search.
  const size_t dims = 4;
  Rng rng(17);
  std::vector<Point> points;
  auto tree = LoadRandom(dims, 250, &rng, 0.0, 10.0, &points);
  const AffineMap identity = AffineMap::Identity(dims);
  for (int q = 0; q < 10; ++q) {
    Rect query = tsq::testing::RandomRect(&rng, dims, 0.0, 10.0);
    std::set<uint64_t> plain;
    IndexDelta counted;
    ASSERT_TRUE(tree->Search(query,
                             [&plain](uint64_t id, const Rect&) {
                               plain.insert(id);
                               return true;
                             })
                    .ok());
    const uint64_t plain_nodes = counted().nodes_visited;
    std::set<uint64_t> transformed;
    counted.Reset();
    ASSERT_TRUE(tree->SearchTransformed(identity, query,
                                        [&transformed](uint64_t id,
                                                       const Rect&) {
                                          transformed.insert(id);
                                          return true;
                                        })
                    .ok());
    EXPECT_EQ(plain, transformed);
    EXPECT_EQ(plain_nodes, counted().nodes_visited);
    EXPECT_GT(counted().rect_transforms, 0u);
  }
}

// --- nearest neighbors --------------------------------------------------------

/// Plain Euclidean MINDIST metric for NN tests.
class EuclideanMetric final : public NnMetric {
 public:
  explicit EuclideanMetric(Point q) : q_(std::move(q)) {}
  double MinDistSquared(const Rect& rect) const override {
    return spatial::MinDistSquared(q_, rect);
  }

 private:
  Point q_;
};

TEST_F(RTreeTest, NearestNeighborsMatchBruteForce) {
  const size_t dims = 3;
  Rng rng(18);
  std::vector<Point> points;
  auto tree = LoadRandom(dims, 400, &rng, 0.0, 100.0, &points);
  for (int q = 0; q < 10; ++q) {
    Point query = RandomPoint(&rng, dims, 0.0, 100.0);
    EuclideanMetric metric(query);
    const size_t k = 1 + static_cast<size_t>(rng.UniformInt(0, 9));
    std::vector<NnResult> got;
    ASSERT_TRUE(tree->NearestNeighbors(metric, k, nullptr, &got).ok());
    ASSERT_EQ(got.size(), k);

    std::vector<std::pair<double, uint64_t>> brute;
    for (uint64_t i = 0; i < points.size(); ++i) {
      brute.emplace_back(spatial::PointDistSquared(query, points[i]), i);
    }
    std::sort(brute.begin(), brute.end());
    for (size_t i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].distance, std::sqrt(brute[i].first), 1e-9)
          << "rank " << i;
    }
    // Ascending order.
    for (size_t i = 1; i < k; ++i) {
      EXPECT_LE(got[i - 1].distance, got[i].distance + 1e-12);
    }
  }
}

TEST_F(RTreeTest, NearestNeighborsStreamEnumeratesAllInOrder) {
  Rng rng(19);
  std::vector<Point> points;
  auto tree = LoadRandom(2, 100, &rng, 0.0, 10.0, &points);
  EuclideanMetric metric(Point{5.0, 5.0});
  // Every popped item surfaces, nodes included, in one ascending order.
  std::vector<double> dists;
  size_t entries = 0;
  size_t nodes = 0;
  const IndexDelta counted;
  ASSERT_TRUE(tree->NearestNeighborsStream(
                      metric, nullptr,
                      [&](std::optional<uint64_t> id, double d) {
                        dists.push_back(d);
                        ++(id.has_value() ? entries : nodes);
                        return true;
                      })
                  .ok());
  EXPECT_EQ(entries, 100u);
  EXPECT_EQ(nodes, counted().nodes_visited);
  EXPECT_TRUE(std::is_sorted(dists.begin(), dists.end()));
}

TEST_F(RTreeTest, NearestNeighborsStreamStopAtANodeSkipsItsRead) {
  // A callback that stops at a node surfaces it before the read, so the
  // page is never fetched: stopping at the k-th node reads k - 1 nodes.
  Rng rng(21);
  std::vector<Point> points;
  auto tree = LoadRandom(2, 200, &rng, 0.0, 10.0, &points);
  ASSERT_GE(tree->height(), 3u);
  EuclideanMetric metric(Point{5.0, 5.0});
  for (const size_t stop_at : {1u, 2u, 3u}) {
    size_t nodes = 0;
    const IndexDelta counted;
    ASSERT_TRUE(tree->NearestNeighborsStream(
                        metric, nullptr,
                        [&](std::optional<uint64_t> id, double) {
                          return id.has_value() || ++nodes < stop_at;
                        })
                    .ok());
    EXPECT_EQ(nodes, stop_at);
    EXPECT_EQ(counted().nodes_visited, stop_at - 1);
  }
}

TEST_F(RTreeTest, KnnWithMoreThanSizeReturnsAll) {
  std::vector<Point> points;
  for (uint64_t i = 0; i < 5; ++i) {
    points.push_back({static_cast<double>(i), 0.0});
  }
  auto tree = BulkLoadTree(pool_.get(), 2, points, kFanout);
  EuclideanMetric metric(Point{0.0, 0.0});
  std::vector<NnResult> got;
  ASSERT_TRUE(tree->NearestNeighbors(metric, 50, nullptr, &got).ok());
  EXPECT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].id, 0u);
}

TEST_F(RTreeTest, ReusedStorageMatchesBruteForce) {
  // STR's slab tails and rebalanced last nodes leave nodes of several
  // sizes at each level, so one descent decodes nodes of varying size
  // into the same per-depth storage. Transformed range and kNN-stream
  // answers must still equal brute force, and every counter must match
  // the tree's shape.
  const size_t dims = 3;
  Rng rng(34);
  std::vector<Point> points;
  auto tree = LoadRandom(dims, 500, &rng, -50.0, 50.0, &points);
  auto report = tree->CheckInvariants();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok) << report->message;

  const Rect everything(Point(dims, -1e9), Point(dims, 1e9));
  auto keep = [](uint64_t, const Rect&) { return true; };
  const IndexDelta full_search;
  ASSERT_TRUE(tree->Search(everything, keep).ok());
  const uint64_t nodes = full_search().nodes_visited;

  for (int q = 0; q < 10; ++q) {
    AffineMap map({rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0),
                   rng.Uniform(-2.0, 2.0)},
                  {rng.Uniform(-10.0, 10.0), rng.Uniform(-10.0, 10.0),
                   rng.Uniform(-10.0, 10.0)});
    Rect query = tsq::testing::RandomRect(&rng, dims, -100.0, 100.0);
    std::set<uint64_t> expected;
    for (uint64_t id = 0; id < points.size(); ++id) {
      if (query.Contains(map.Apply(points[id]))) expected.insert(id);
    }
    std::set<uint64_t> actual;
    ASSERT_TRUE(tree->SearchTransformed(map, query,
                                        [&actual](uint64_t id, const Rect&) {
                                          actual.insert(id);
                                          return true;
                                        })
                    .ok());
    EXPECT_EQ(actual, expected);

    // The stream enumerates every entry once, in ascending bound order,
    // each bound the metric's value on the entry's mapped point.
    const Point center = RandomPoint(&rng, dims, -50.0, 50.0);
    EuclideanMetric metric(center);
    std::vector<std::pair<double, uint64_t>> streamed;
    const IndexDelta counted;
    ASSERT_TRUE(tree->NearestNeighborsStream(
                        metric, &map,
                        [&streamed](std::optional<uint64_t> id, double bound) {
                          if (id.has_value()) streamed.emplace_back(bound, *id);
                          return true;
                        })
                    .ok());
    const obs::IndexCounters mine = counted();
    EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                               }));
    std::vector<std::pair<double, uint64_t>> brute;
    for (uint64_t id = 0; id < points.size(); ++id) {
      brute.emplace_back(
          metric.MinDistSquared(map.Apply(Rect::FromPoint(points[id]))), id);
    }
    std::sort(streamed.begin(), streamed.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(streamed, brute);

    // Exhausting the stream visits every node and maps every entry once:
    // the leaf entries plus one parent entry per non-root node.
    EXPECT_EQ(mine.nodes_visited, nodes);
    EXPECT_EQ(mine.rect_transforms, nodes - 1 + points.size());
    EXPECT_EQ(mine.leaf_entries_tested, points.size());
  }
}

// --- persistence -----------------------------------------------------------------

TEST_F(RTreeTest, PersistsAcrossReopen) {
  const size_t dims = 2;
  Rng rng(20);
  std::vector<Point> points;
  PageId meta = kInvalidPageId;
  {
    auto tree = LoadRandom(dims, 200, &rng, 0.0, 30.0, &points);
    meta = tree->meta_page();
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pool_->FlushAll().ok());
  }
  RTreeOptions options;
  options.max_entries_override = kFanout;
  auto tree = RStarTree::Open(pool_.get(), meta, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->size(), 200u);

  Rect query({5.0, 5.0}, {25.0, 25.0});
  std::set<uint64_t> expected;
  for (uint64_t i = 0; i < points.size(); ++i) {
    if (query.Contains(points[i])) expected.insert(i);
  }
  std::set<uint64_t> actual;
  ASSERT_TRUE((*tree)
                  ->Search(query,
                           [&actual](uint64_t id, const Rect&) {
                             actual.insert(id);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(actual, expected);
}

// --- edge cases ---------------------------------------------------------------

class RTreeEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pf = PageFile::Create(dir_.file("tree.pages"));
    ASSERT_TRUE(pf.ok());
    file_ = std::move(*pf);
    pool_ = std::make_unique<BufferPool>(file_.get(), 64);
  }
  TempDir dir_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(RTreeEdgeTest, RejectsDimensionMismatches) {
  auto tree = RStarTree::Create(pool_.get(), 3, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)
                  ->Search(Rect({0.0}, {1.0}),
                           [](uint64_t, const Rect&) { return true; })
                  .IsInvalidArgument());
  EXPECT_TRUE(RStarTree::Create(pool_.get(), 0, {}).status()
                  .IsInvalidArgument());
}

TEST_F(RTreeEdgeTest, OpenRejectsNonMetaPage) {
  auto tree = BulkLoadTree(pool_.get(), 2, std::vector<Point>{{0.0, 0.0}}, 0);
  // The page after the meta page is the root node, not a meta page.
  EXPECT_FALSE(RStarTree::Open(pool_.get(), tree->meta_page() + 1, {}).ok());
}

/// Runs every read-only descent over the whole of `tree` and returns each
/// one's status by name.
std::vector<std::pair<std::string, Status>> RunEveryDescent(
    const RStarTree& tree) {
  const size_t dims = tree.dims();
  const Rect everything(Point(dims, -1e9), Point(dims, 1e9));
  const AffineMap shift(std::vector<double>(dims, 1.0),
                        std::vector<double>(dims, 0.5));
  auto keep = [](uint64_t, const Rect&) { return true; };
  auto keep_streaming = [](std::optional<uint64_t>, double) { return true; };
  auto all_pairs = [](const Rect&, const Rect&) { return true; };
  auto keep_pairs = [](uint64_t, uint64_t) { return true; };
  EuclideanMetric metric(Point(dims, 0.0));

  std::vector<std::pair<std::string, Status>> out;
  out.emplace_back("Search", tree.Search(everything, keep));
  out.emplace_back("SearchTransformed",
                   tree.SearchTransformed(shift, everything, keep));
  out.emplace_back("NearestNeighborsStream",
                   tree.NearestNeighborsStream(metric, nullptr,
                                               keep_streaming));
  out.emplace_back("NearestNeighborsStream(map)",
                   tree.NearestNeighborsStream(metric, &shift,
                                               keep_streaming));
  out.emplace_back("JoinWith", tree.JoinWith(tree, nullptr, &shift, all_pairs,
                                             keep_pairs));
  Status seeded;
  auto seeds = tree.JoinSeeds(tree, nullptr, &shift, all_pairs);
  if (!seeds.ok()) {
    seeded = seeds.status();
  } else {
    for (const RStarTree::JoinSeed& seed : *seeds) {
      seeded = tree.JoinFrom(seed, tree, nullptr, &shift, all_pairs,
                             keep_pairs);
      if (!seeded.ok()) break;
    }
  }
  out.emplace_back("JoinSeeds+JoinFrom", seeded);
  return out;
}

TEST_F(RTreeEdgeTest, CorruptNodePagesReturnCorruptionFromEveryDescent) {
  // Three hostile pages: a NaN coordinate; an entry pointing at its own
  // page, which a descent without level checks follows until the stack
  // overflows; and a root entry pointing at a leaf, which loses the
  // subtree between them unless the child's level is checked — by the
  // join seeds too, whose descents start one level below the root. Every
  // descent must return Corruption, and the tree must read normally once
  // the page is restored.
  const size_t dims = 3;
  Rng rng(33);
  std::vector<Point> points;
  for (uint64_t i = 0; i < 200; ++i) {
    points.push_back(RandomPoint(&rng, dims, 0.0, 10.0));
  }
  auto tree = BulkLoadTree(pool_.get(), dims, points, 4);
  ASSERT_GE(tree->height(), 3u);
  for (const auto& [name, status] : RunEveryDescent(*tree)) {
    ASSERT_TRUE(status.ok()) << name << ": " << status.ToString();
  }

  // Meta page layout: u64 magic | u64 dims | u64 root | ...
  ASSERT_TRUE(tree->SaveMeta().ok());
  const PageId root =
      pool_->Fetch(tree->meta_page()).value().page()->ReadU64(16);
  Node root_node;
  ASSERT_TRUE(
      DeserializeNode(*pool_->Fetch(root).value().page(), dims, &root_node)
          .ok());
  ASSERT_FALSE(root_node.IsLeaf());
  const PageId child = root_node.entries[0].id;

  auto corrupt_and_check = [&](PageId page_id, auto&& corrupt) {
    Page saved;
    {
      PageHandle handle = pool_->Fetch(page_id).value();
      saved = *handle.page();
      corrupt(handle.page());
      handle.MarkDirty();
    }
    for (const auto& [name, status] : RunEveryDescent(*tree)) {
      EXPECT_TRUE(status.IsCorruption()) << name << ": " << status.ToString();
    }
    auto check = tree->CheckInvariants();  // the owning LoadNode path
    EXPECT_TRUE(!check.ok() || !check->ok);
    PageHandle handle = pool_->Fetch(page_id).value();
    *handle.page() = saved;
    handle.MarkDirty();
  };

  corrupt_and_check(child, [&](Page* page) { PoisonLo(page, dims, 0, 0); });
  corrupt_and_check(root, [&](Page* page) {
    Node looped = root_node;
    looped.entries[0].id = root;
    ASSERT_TRUE(SerializeNode(looped, dims, page).ok());
  });
  PageId leaf = child;
  for (Node node;;) {
    ASSERT_TRUE(
        DeserializeNode(*pool_->Fetch(leaf).value().page(), dims, &node).ok());
    if (node.IsLeaf()) break;
    leaf = node.entries[0].id;
  }
  corrupt_and_check(root, [&](Page* page) {
    Node skipping = root_node;
    skipping.entries[0].id = leaf;
    ASSERT_TRUE(SerializeNode(skipping, dims, page).ok());
  });

  for (const auto& [name, status] : RunEveryDescent(*tree)) {
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  }
}

TEST_F(RTreeEdgeTest, HeightGrowsLogarithmically) {
  Rng rng(21);
  std::vector<Point> points;
  for (uint64_t i = 0; i < 256; ++i) {
    points.push_back(RandomPoint(&rng, 2, 0.0, 1.0));
  }
  auto tree = BulkLoadTree(pool_.get(), 2, points, 4);
  // Fanout 4, 256 points: height must be at least 4 and not absurd.
  EXPECT_GE(tree->height(), 4u);
  EXPECT_LE(tree->height(), 10u);
}

}  // namespace
}  // namespace rtree
}  // namespace tsq

namespace tsq {
namespace rtree {
namespace {

// ---------------------------------------------------------------------------
// STR bulk loading
// ---------------------------------------------------------------------------

class BulkLoadTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    auto pf = PageFile::Create(dir_.file("bulk.pages"));
    ASSERT_TRUE(pf.ok());
    file_ = std::move(*pf);
    pool_ = std::make_unique<BufferPool>(file_.get(), 256);
  }

  // Loads GetParam() random points into a `dims`-D tree whose STR tiles
  // dims [first_tiled_dim, dims), then checks the invariants and exact
  // answers to random rectangles against a brute force. Every second
  // rectangle leaves the untiled dims unbounded, as a query without a
  // mean/std window does.
  void LoadAndSearch(size_t dims, size_t first_tiled_dim) {
    const size_t count = GetParam();
    RTreeOptions options;
    options.max_entries_override = 10;
    auto tree = RStarTree::Create(pool_.get(), dims, options).value();

    Rng rng(count + 5);
    std::vector<Entry> entries;
    std::vector<spatial::Point> points;
    for (uint64_t i = 0; i < count; ++i) {
      spatial::Point p = tsq::testing::RandomPoint(&rng, dims, 0.0, 100.0);
      Entry e;
      e.rect = spatial::Rect::FromPoint(p);
      e.id = i;
      entries.push_back(e);
      points.push_back(std::move(p));
    }
    ASSERT_TRUE(tree->BulkLoad(entries, first_tiled_dim).ok());
    EXPECT_EQ(tree->size(), count);

    auto check = tree->CheckInvariants();
    ASSERT_TRUE(check.ok());
    EXPECT_TRUE(check->ok) << check->message;

    for (int q = 0; q < 10; ++q) {
      spatial::Rect query = tsq::testing::RandomRect(&rng, dims, 0.0, 100.0);
      if (q % 2 == 1) {
        for (size_t d = 0; d < first_tiled_dim; ++d) {
          query.SetDim(d, -kInf, kInf);
        }
      }
      std::set<uint64_t> expected;
      for (uint64_t i = 0; i < count; ++i) {
        if (query.Contains(points[i])) expected.insert(i);
      }
      std::set<uint64_t> actual;
      ASSERT_TRUE(tree->Search(query,
                               [&actual](uint64_t id, const spatial::Rect&) {
                                 actual.insert(id);
                                 return true;
                               })
                      .ok());
      EXPECT_EQ(actual, expected);
    }
  }

  tsq::testing::TempDir dir_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_P(BulkLoadTest, LoadsAndSearchesExactly) { LoadAndSearch(3, 0); }

// The paper's 6-D layout tiled on its four spectral dims only, as KIndex
// loads it: the untiled mean/std dims still bound every MBR.
TEST_P(BulkLoadTest, LoadsAndSearchesExactlyTilingFromDimTwo) {
  LoadAndSearch(6, 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadTest,
                         ::testing::Values(0, 1, 5, 10, 11, 100, 1000, 5000));

TEST(BulkLoadEdgeTest, RequiresEmptyTreeAndValidEntries) {
  tsq::testing::TempDir dir;
  auto file = PageFile::Create(dir.file("b.pages")).value();
  BufferPool pool(file.get(), 64);
  auto tree = BulkLoadTree(&pool, 2, std::vector<Point>{{1.0, 1.0}}, 0);

  // A tree is written once: a second load is refused.
  Entry e;
  e.rect = spatial::Rect::FromPoint(spatial::Point{2.0, 2.0});
  e.id = 1;
  EXPECT_TRUE(tree->BulkLoad({e}, 0).IsFailedPrecondition());
  EXPECT_EQ(tree->size(), 1u);

  auto tree2 = RStarTree::Create(&pool, 2, {}).value();
  Entry bad;
  bad.rect = spatial::Rect::FromPoint(spatial::Point{1.0});  // wrong dims
  EXPECT_TRUE(tree2->BulkLoad({bad}, 0).IsInvalidArgument());
  Entry empty_rect;
  empty_rect.rect = spatial::Rect::Empty(2);
  EXPECT_TRUE(tree2->BulkLoad({empty_rect}, 0).IsInvalidArgument());
  // STR must tile at least one dim.
  EXPECT_TRUE(tree2->BulkLoad({e}, 2).IsInvalidArgument());
  EXPECT_EQ(tree2->size(), 0u);
}

TEST(BulkLoadEdgeTest, UntiledDimsDoNotDecideWhichEntriesShareANode) {
  // Two entry sets with the same ids and the same dims 2-5 but
  // independently random dims 0-1, each bulk-loaded tiling from dim 2:
  // the untiled dims move no entry to another node, so a search that
  // leaves them unbounded visits the same number of nodes in both trees
  // and finds the same ids.
  TempDir dir;
  auto file = PageFile::Create(dir.file("b.pages")).value();
  BufferPool pool(file.get(), 1024);
  RTreeOptions options;
  options.max_entries_override = 10;
  constexpr size_t kDims = 6;
  constexpr size_t kCount = 3000;

  Rng spectral_rng(21);
  std::vector<Point> spectral(kCount);
  for (Point& p : spectral) p = RandomPoint(&spectral_rng, kDims, 0.0, 100.0);
  const auto build = [&](uint64_t seed, size_t first_tiled_dim) {
    Rng rng(seed);
    std::vector<Entry> entries(kCount);
    for (uint64_t i = 0; i < kCount; ++i) {
      Point p = spectral[i];
      p[0] = rng.Uniform(-50.0, 50.0);
      p[1] = rng.Uniform(0.0, 10.0);
      entries[i].rect = Rect::FromPoint(p);
      entries[i].id = i;
    }
    auto tree = RStarTree::Create(&pool, kDims, options).value();
    EXPECT_TRUE(tree->BulkLoad(std::move(entries), first_tiled_dim).ok());
    return tree;
  };
  // Nodes visited by one search, and the ids it finds.
  const auto search = [](const RStarTree& tree, const Rect& query) {
    std::set<uint64_t> ids;
    const IndexDelta counted;
    EXPECT_TRUE(tree.Search(query,
                            [&ids](uint64_t id, const Rect&) {
                              ids.insert(id);
                              return true;
                            })
                    .ok());
    return std::make_pair(counted().nodes_visited, ids);
  };

  const auto a = build(1, 2);
  const auto b = build(2, 2);
  // The same two entry sets tiled on every dim, as a control: there the
  // random dims 0-1 do decide the packing.
  const auto a_all = build(1, 0);
  const auto b_all = build(2, 0);
  Rng query_rng(22);
  uint64_t visited_all_a = 0;
  uint64_t visited_all_b = 0;
  for (int q = 0; q < 20; ++q) {
    Rect query = tsq::testing::RandomRect(&query_rng, kDims, 0.0, 100.0);
    query.SetDim(0, -kInf, kInf);
    query.SetDim(1, -kInf, kInf);
    const auto [nodes_a, ids_a] = search(*a, query);
    const auto [nodes_b, ids_b] = search(*b, query);
    EXPECT_EQ(nodes_a, nodes_b) << "query " << q;
    EXPECT_EQ(ids_a, ids_b) << "query " << q;
    EXPECT_GT(nodes_a, 0u);
    visited_all_a += search(*a_all, query).first;
    visited_all_b += search(*b_all, query).first;
  }
  EXPECT_NE(visited_all_a, visited_all_b);
}

}  // namespace
}  // namespace rtree
}  // namespace tsq
