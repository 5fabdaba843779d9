// Copyright (c) 2026 The tsq Authors.
//
// Shared helpers for the tsq test suite.

#ifndef TSQ_TESTS_TEST_UTIL_H_
#define TSQ_TESTS_TEST_UTIL_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "dft/complex_vec.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "spatial/point.h"
#include "spatial/rect.h"

namespace tsq {
namespace testing {

/// The buffer-pool and R*-tree events this thread causes from
/// construction (or the last Reset) on: a delta of
/// obs::ThisThreadIndexCounters(), where each such event is counted.
class IndexDelta {
 public:
  IndexDelta() { Reset(); }
  void Reset() { before_ = obs::ThisThreadIndexCounters(); }
  obs::IndexCounters operator()() const {
    return obs::ThisThreadIndexCounters() - before_;
  }

 private:
  obs::IndexCounters before_;
};

/// A unique temporary directory, removed at destruction.
class TempDir {
 public:
  TempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = "tsq";
    if (info != nullptr) {
      tag = std::string(info->test_suite_name()) + "_" + info->name();
      for (char& c : tag) {
        if (c == '/' || c == '\\') c = '_';
      }
    }
    path_ = std::filesystem::temp_directory_path() /
            (tag + "_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  std::string path() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// Random vector helpers (deterministic via the seeded Rng).
inline RealVec RandomRealVec(Rng* rng, size_t n, double lo = -10.0,
                             double hi = 10.0) {
  RealVec out(n);
  for (double& v : out) v = rng->Uniform(lo, hi);
  return out;
}

inline ComplexVec RandomComplexVec(Rng* rng, size_t n, double lo = -10.0,
                                   double hi = 10.0) {
  ComplexVec out(n);
  for (Complex& c : out) {
    c = Complex(rng->Uniform(lo, hi), rng->Uniform(lo, hi));
  }
  return out;
}

inline spatial::Point RandomPoint(Rng* rng, size_t dims, double lo = -100.0,
                                  double hi = 100.0) {
  spatial::Point p(dims);
  for (double& v : p) v = rng->Uniform(lo, hi);
  return p;
}

inline spatial::Rect RandomRect(Rng* rng, size_t dims, double lo = -100.0,
                                double hi = 100.0) {
  spatial::Point a = RandomPoint(rng, dims, lo, hi);
  spatial::Point b = RandomPoint(rng, dims, lo, hi);
  for (size_t d = 0; d < dims; ++d) {
    if (a[d] > b[d]) std::swap(a[d], b[d]);
  }
  return spatial::Rect(std::move(a), std::move(b));
}

/// A tree in `pool`'s file over `rects`, rects[i] under id i, written
/// the one way any tree is: STR packing (RStarTree::Build) from
/// `first_tiled_dim`. A nonzero `max_entries` caps the fanout
/// (RTreeOptions::max_entries_override), so a few hundred entries make
/// a tree several levels deep.
inline std::unique_ptr<rtree::RStarTree> BulkLoadTree(
    BufferPool* pool, size_t dims, const std::vector<spatial::Rect>& rects,
    size_t max_entries, size_t first_tiled_dim = 0) {
  rtree::RTreeOptions options;
  options.max_entries_override = max_entries;
  std::vector<rtree::Entry> entries(rects.size());
  for (size_t i = 0; i < rects.size(); ++i) entries[i] = {rects[i], i};
  auto tree = rtree::RStarTree::Build(pool, dims, std::move(entries),
                                      first_tiled_dim, options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

/// BulkLoadTree over point entries: points[i] under id i.
inline std::unique_ptr<rtree::RStarTree> BulkLoadTree(
    BufferPool* pool, size_t dims, const std::vector<spatial::Point>& points,
    size_t max_entries, size_t first_tiled_dim = 0) {
  std::vector<spatial::Rect> rects;
  rects.reserve(points.size());
  for (const spatial::Point& p : points) {
    rects.push_back(spatial::Rect::FromPoint(p));
  }
  return BulkLoadTree(pool, dims, rects, max_entries, first_tiled_dim);
}

/// Appends `count` pages to `file`, each holding its own id in its first
/// word, and returns their ids: how a test fills the pages a BufferPool
/// then reads.
inline std::vector<PageId> AppendPages(PageFile* file, size_t count) {
  std::vector<PageId> ids;
  Page page(file->page_size());
  for (size_t i = 0; i < count; ++i) {
    const PageId id = file->Allocate();
    page.WriteU64(0, id);
    EXPECT_TRUE(file->Write(id, page).ok()) << "page " << id;
    ids.push_back(id);
  }
  return ids;
}

/// AppendPages to `pool`'s file, then fetches each new page through
/// `pool` in order, so that the pool caches the last capacity() of them.
inline std::vector<PageId> CachePages(BufferPool* pool, size_t count) {
  const std::vector<PageId> ids = AppendPages(pool->file(), count);
  for (const PageId id : ids) EXPECT_TRUE(pool->Fetch(id).ok()) << id;
  return ids;
}

/// Overwrites page `id` of the page file at `path` with `page`, beneath
/// every PageFile and BufferPool that has the file open: how a test
/// plants a hostile page in a published index file, which PageFile::Open
/// opens read-only. A pool that already caches the page keeps its copy.
inline void OverwritePage(const std::string& path, PageId id,
                          const Page& page) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekp(static_cast<std::streamoff>(id * page.size()));
  f.write(reinterpret_cast<const char*>(page.data()),
          static_cast<std::streamsize>(page.size()));
  ASSERT_TRUE(f.good()) << "write of page " << id << " to " << path;
}

/// One query asked the way every single query is: a one-element
/// Database::RunBatch unwrapped by engine::SingleResult, so a per-query
/// failure (results[0].status) is the Result's status. `stats`, when
/// non-null, receives results[0].stats.
inline Result<std::vector<Match>> RunOne(Database* db,
                                         engine::BatchQuery query,
                                         QueryStats* stats = nullptr) {
  TSQ_ASSIGN_OR_RETURN(engine::BatchResult result,
                       engine::SingleResult(db->RunBatch({std::move(query)})));
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.matches);
}

/// Indexed range query (Algorithm 2) through RunOne.
inline Result<std::vector<Match>> Range(Database* db, const RealVec& query,
                                        double epsilon,
                                        const QuerySpec& spec = {},
                                        QueryStats* stats = nullptr) {
  return RunOne(db, engine::BatchQuery::Range(query, epsilon, spec), stats);
}

/// Indexed kNN query through RunOne.
inline Result<std::vector<Match>> Knn(Database* db, const RealVec& query,
                                      size_t k, const QuerySpec& spec = {},
                                      const KnnOptions& options = {},
                                      QueryStats* stats = nullptr) {
  return RunOne(db, engine::BatchQuery::Knn(query, k, spec, options), stats);
}

/// The sequential-scan oracle indexed answers are checked against:
/// SeqScanRangeQuery over `db`'s relation (needs no index).
inline Result<std::vector<Match>> Scan(Database* db, const RealVec& query,
                                       double epsilon,
                                       const QuerySpec& spec = {},
                                       bool early_abandon = true) {
  std::vector<Match> out;
  TSQ_RETURN_IF_ERROR(SeqScanRangeQuery(*db->relation(), db->extractor(),
                                        query, epsilon, spec, early_abandon,
                                        &out, /*stats=*/nullptr));
  return out;
}

/// Fails the whole test binary if it is still alive `seconds` after
/// construction, so a test that can deadlock fails instead of wedging
/// the suite. Disarmed by destruction.
class Watchdog {
 public:
  Watchdog(const char* what, int seconds)
      : thread_([this, what, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %d s\n",
                         what, seconds);
            std::fflush(stderr);
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every segment file of `db`'s relation, concatenated with separators —
/// the whole on-disk relation directory as one comparable string.
inline std::string RelationBytes(Database* db) {
  std::string all;
  for (size_t s = 0; s < db->relation()->num_segments(); ++s) {
    all += "\n--segment " + std::to_string(s) + "--\n";
    all += ReadFileBytes(db->relation()->SegmentPath(s));
  }
  return all;
}

/// EXPECT helper: complex vectors elementwise close.
inline void ExpectComplexNear(const ComplexVec& actual,
                              const ComplexVec& expected, double tol) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i].real(), expected[i].real(), tol) << "at index " << i;
    EXPECT_NEAR(actual[i].imag(), expected[i].imag(), tol) << "at index " << i;
  }
}

/// EXPECT helper: real vectors elementwise close.
inline void ExpectRealNear(const RealVec& actual, const RealVec& expected,
                           double tol) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol) << "at index " << i;
  }
}

}  // namespace testing
}  // namespace tsq

#endif  // TSQ_TESTS_TEST_UTIL_H_
