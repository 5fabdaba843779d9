// Copyright (c) 2026 The tsq Authors.
//
// Micro-benchmarks (google-benchmark) for the R*-tree: plain against
// transformed range search and kNN over a small STR-packed tree, and warm
// range/kNN descents over an STR-packed tree of the paper's index shape
// (6-D, 4 KiB pages) reporting the time per visited node.
// Sizes shrink under TSQ_BENCH_SMOKE; results also go to
// BENCH_micro_rtree.json.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench_util.h"
#include "common/random.h"
#include "micro_main.h"
#include "obs/trace.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tsq {
namespace {

using rtree::RStarTree;

spatial::Point RandomPoint(Rng* rng, size_t dims) {
  spatial::Point p(dims);
  for (double& v : p) v = rng->Uniform(0.0, 100.0);
  return p;
}

/// An STR-packed tree over `count` uniform points in [0, 100]^dims drawn
/// from `rng`, tiled on every dim, in its own page file.
struct TreeEnv {
  std::string path;
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<RStarTree> tree;

  TreeEnv(Rng* rng, size_t count, size_t dims, size_t pool_frames = 512) {
    path = (std::filesystem::temp_directory_path() /
            ("tsq_micrortree_" + std::to_string(reinterpret_cast<uintptr_t>(
                                     this))))
               .string();
    file = PageFile::Create(path).value();
    pool = std::make_unique<BufferPool>(file.get(), pool_frames);
    std::vector<rtree::Entry> entries(count);
    for (size_t i = 0; i < count; ++i) {
      entries[i].rect = spatial::Rect::FromPoint(RandomPoint(rng, dims));
      entries[i].id = i;
    }
    tree = RStarTree::Build(pool.get(), dims, std::move(entries), 0).value();
  }
  ~TreeEnv() {
    tree.reset();
    pool.reset();
    file.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

void BM_RTreeTransformedSearch(benchmark::State& state) {
  // The Figure 8 gap, isolated: plain vs transformed traversal.
  const bool transformed = state.range(0) != 0;
  Rng rng(44);
  TreeEnv env(&rng, bench::Scaled(5000, 500), 6);
  spatial::Point lo(6), hi(6);
  for (size_t d = 0; d < 6; ++d) {
    lo[d] = 40.0;
    hi[d] = 60.0;
  }
  const spatial::Rect query(lo, hi);
  const spatial::AffineMap identity = spatial::AffineMap::Identity(6);
  uint64_t sink = 0;
  auto emit = [&sink](uint64_t id, const spatial::Rect&) {
    sink += id;
    return true;
  };
  for (auto _ : state) {
    if (transformed) {
      env.tree->SearchTransformed(identity, query, emit).ok();
    } else {
      env.tree->Search(query, emit).ok();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetLabel(transformed ? "transformed(identity)" : "plain");
}
BENCHMARK(BM_RTreeTransformedSearch)->Arg(0)->Arg(1);

class PointMetric final : public rtree::NnMetric {
 public:
  explicit PointMetric(spatial::Point q) : q_(std::move(q)) {}
  double MinDistSquared(const spatial::Rect& rect) const override {
    return spatial::MinDistSquared(q_, rect);
  }

 private:
  spatial::Point q_;
};

void BM_RTreeKnn(benchmark::State& state) {
  Rng rng(45);
  TreeEnv env(&rng, bench::Scaled(5000, 500), 6);
  PointMetric metric(spatial::Point(6, 50.0));
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<rtree::NnResult> out;
  for (auto _ : state) {
    env.tree->NearestNeighbors(metric, k, nullptr, &out).ok();
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(1)->Arg(10)->Arg(100);

// --- warm descents over the paper's index shape --------------------------

constexpr size_t kPaperDims = 6;  // the paper's 6-D index, on 4 KiB pages

/// Bulk-loaded 6-D tree over uniform points in [0, 100]^6 (100k points,
/// the size of perfbench's lookup relation; fewer under TSQ_BENCH_SMOKE)
/// with a pool that holds every page, plus a fixed set of query points.
/// Built once per process: google-benchmark calls each function several
/// times while sizing its iteration count.
struct PaperTree {
  Rng rng{46};
  TreeEnv env{&rng, bench::Scaled(100000, 2000), kPaperDims, 8192};
  std::vector<spatial::Point> queries;

  PaperTree() {
    for (int i = 0; i < 256; ++i) {
      queries.push_back(RandomPoint(&rng, kPaperDims));
    }
  }
};

const PaperTree& GetPaperTree() {
  static const PaperTree tree;  // its destructor removes the page file
  return tree;
}

/// Runs `descend(query)` once per iteration over the query set, after one
/// untimed warm-up pass, and reports nodes visited per query and the time
/// per visited node (in seconds, printed with an SI prefix).
template <typename Descend>
void RunDescents(benchmark::State& state, const Descend& descend) {
  const PaperTree& paper = GetPaperTree();
  for (const spatial::Point& q : paper.queries) descend(q);
  const uint64_t nodes_before = obs::ThisThreadIndexCounters().nodes_visited;
  size_t next = 0;
  for (auto _ : state) {
    descend(paper.queries[next]);
    next = (next + 1) % paper.queries.size();
  }
  const double nodes = static_cast<double>(
      obs::ThisThreadIndexCounters().nodes_visited - nodes_before);
  state.counters["nodes_per_query"] =
      benchmark::Counter(nodes, benchmark::Counter::kAvgIterations);
  state.counters["time_per_node"] = benchmark::Counter(
      nodes, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_PaperTreeRange(benchmark::State& state) {
  // Half-width 9 around a query point holds ~3 of the 100k points, about
  // the answer size of perfbench's lookup ranges.
  const bool transformed = state.range(0) != 0;
  const RStarTree& tree = *GetPaperTree().env.tree;
  const spatial::AffineMap identity = spatial::AffineMap::Identity(kPaperDims);
  uint64_t sink = 0;
  auto emit = [&sink](uint64_t id, const spatial::Rect&) {
    sink += id;
    return true;
  };
  RunDescents(state, [&](const spatial::Point& q) {
    const spatial::Rect box = spatial::Rect::FromPoint(q).Grown(9.0);
    const Status status = transformed
                              ? tree.SearchTransformed(identity, box, emit)
                              : tree.Search(box, emit);
    benchmark::DoNotOptimize(status.ok());
  });
  benchmark::DoNotOptimize(sink);
  state.SetLabel(transformed ? "transformed(identity)" : "plain");
}
BENCHMARK(BM_PaperTreeRange)->Arg(0)->Arg(1);

void BM_PaperTreeKnn(benchmark::State& state) {
  const bool transformed = state.range(0) != 0;
  const RStarTree& tree = *GetPaperTree().env.tree;
  const spatial::AffineMap identity = spatial::AffineMap::Identity(kPaperDims);
  std::vector<rtree::NnResult> out;
  RunDescents(state, [&](const spatial::Point& q) {
    const PointMetric metric(q);
    const Status status = tree.NearestNeighbors(
        metric, 1, transformed ? &identity : nullptr, &out);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(out.data());
  });
  state.SetLabel(transformed ? "k=1 transformed(identity)" : "k=1");
}
BENCHMARK(BM_PaperTreeKnn)->Arg(0)->Arg(1);

}  // namespace
}  // namespace tsq

int main(int argc, char** argv) {
  return tsq::bench::RunMicroBenchmarks(argc, argv, "BENCH_micro_rtree.json");
}
