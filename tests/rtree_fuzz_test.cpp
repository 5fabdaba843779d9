// Copyright (c) 2026 The tsq Authors.
//
// Model-based fuzz test for the R*-tree: random interleavings of inserts,
// removes and searches are checked against an exact in-memory reference
// after every batch, with structural invariants audited along the way.
// Parameterized over seeds and forced reinsertion on/off so ctest runs
// many independent schedules.

#include <map>
#include <set>
#include <tuple>

#include "common/random.h"
#include "gtest/gtest.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace tsq {
namespace rtree {
namespace {

using spatial::Point;
using spatial::Rect;
using tsq::testing::TempDir;

class RTreeFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(RTreeFuzzTest, RandomScheduleMatchesReferenceModel) {
  const auto [seed, forced_reinsert] = GetParam();
  TempDir dir;
  auto file = PageFile::Create(dir.file("fuzz.pages")).value();
  BufferPool pool(file.get(), 96);
  RTreeOptions options;
  options.forced_reinsert = forced_reinsert;
  options.max_entries_override = 6;  // deep trees, frequent splits/merges
  auto tree = RStarTree::Create(&pool, 3, options).value();

  Rng rng(seed);
  std::map<uint64_t, Point> model;  // id -> point
  uint64_t next_id = 0;

  auto check_against_model = [&]() {
    // Count and invariants.
    ASSERT_EQ(tree->size(), model.size());
    auto report = tree->CheckInvariants();
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->ok) << report->message;
    // Three random range queries.
    for (int q = 0; q < 3; ++q) {
      Rect query = tsq::testing::RandomRect(&rng, 3, 0.0, 50.0);
      std::set<uint64_t> expected;
      for (const auto& [id, p] : model) {
        if (query.Contains(p)) expected.insert(id);
      }
      std::set<uint64_t> actual;
      ASSERT_TRUE(tree->Search(query,
                               [&actual](uint64_t id, const Rect&) {
                                 actual.insert(id);
                                 return true;
                               })
                      .ok());
      ASSERT_EQ(actual, expected);
    }
  };

  for (int batch = 0; batch < 12; ++batch) {
    const int ops = 60;
    for (int op = 0; op < ops; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.65 || model.empty()) {
        // Insert; clustered coordinates provoke overlapping MBRs.
        Point p(3);
        const double cluster = 10.0 * static_cast<double>(rng.UniformInt(0, 4));
        for (double& v : p) v = cluster + rng.Uniform(0.0, 10.0);
        ASSERT_TRUE(tree->InsertPoint(p, next_id).ok());
        model.emplace(next_id, std::move(p));
        ++next_id;
      } else {
        // Remove a random existing entry.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.UniformInt(
                             0, static_cast<int64_t>(model.size()) - 1)));
        auto removed = tree->Remove(Rect::FromPoint(it->second), it->first);
        ASSERT_TRUE(removed.ok()) << removed.status().ToString();
        ASSERT_TRUE(*removed);
        model.erase(it);
      }
    }
    check_against_model();
  }

  // Drain everything; the tree must return to its empty state.
  while (!model.empty()) {
    auto it = model.begin();
    auto removed = tree->Remove(Rect::FromPoint(it->second), it->first);
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(*removed);
    model.erase(it);
  }
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndReinsert, RTreeFuzzTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Crash-consistency-flavored checks: reopen mid-life, keep mutating.
// ---------------------------------------------------------------------------

TEST(RTreeFuzzReopenTest, MutateReopenMutate) {
  TempDir dir;
  const std::string path = dir.file("reopen.pages");
  Rng rng(77);
  std::map<uint64_t, Point> model;
  PageId meta = kInvalidPageId;

  {
    auto file = PageFile::Create(path).value();
    BufferPool pool(file.get(), 64);
    RTreeOptions options;
    options.max_entries_override = 8;
    auto tree = RStarTree::Create(&pool, 2, options).value();
    for (uint64_t i = 0; i < 300; ++i) {
      Point p = tsq::testing::RandomPoint(&rng, 2, 0.0, 40.0);
      ASSERT_TRUE(tree->InsertPoint(p, i).ok());
      model.emplace(i, std::move(p));
    }
    meta = tree->meta_page();
    ASSERT_TRUE(tree->SaveMeta().ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  auto file = PageFile::Open(path).value();
  BufferPool pool(file.get(), 64);
  RTreeOptions options;
  options.max_entries_override = 8;
  auto tree = RStarTree::Open(&pool, meta, options).value();
  ASSERT_EQ(tree->size(), model.size());

  // Remove half, insert some more, verify against the model.
  for (uint64_t i = 0; i < 300; i += 2) {
    auto removed = tree->Remove(Rect::FromPoint(model.at(i)), i);
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(*removed);
    model.erase(i);
  }
  for (uint64_t i = 300; i < 400; ++i) {
    Point p = tsq::testing::RandomPoint(&rng, 2, 0.0, 40.0);
    ASSERT_TRUE(tree->InsertPoint(p, i).ok());
    model.emplace(i, std::move(p));
  }
  auto report = tree->CheckInvariants();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok) << report->message;

  Rect everything({-1e9, -1e9}, {1e9, 1e9});
  std::set<uint64_t> actual;
  ASSERT_TRUE(tree->Search(everything,
                           [&actual](uint64_t id, const Rect&) {
                             actual.insert(id);
                             return true;
                           })
                  .ok());
  std::set<uint64_t> expected;
  for (const auto& [id, p] : model) expected.insert(id);
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace rtree
}  // namespace tsq
