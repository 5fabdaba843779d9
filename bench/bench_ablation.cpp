// Copyright (c) 2026 The tsq Authors.
//
// Ablations of five design choices:
//   1. number of indexed coefficients k — filter power (candidates per
//      query) vs index dimensionality;
//   2. polar vs rectangular coordinate space — identical correctness for
//      identity queries; polar additionally admits multiplicative
//      transforms (moving average), which rectangular must reject;
//   3. STR packing that tiles the spectral dims only (the shipped index)
//      vs STR tiling all six dims — node accesses per query without a
//      mean/std window and with windows of +-5% and +-25% around the
//      query's own mean and std (the queries the untiled mean/std dims
//      cost);
//   4. Fourier vs Haar coefficient basis;
//   5. the range filter — the search rectangle alone, Lemma 1's ball at
//      eps, and the shipped filter (ball at eps/sqrt(2) under conjugate
//      symmetry): candidates and precision.

#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_util.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/queries.h"
#include "obs/trace.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "transform/builtin.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

workload::StockMarketOptions MarketOptions() {
  workload::StockMarketOptions opts;
  opts.num_series = 800;
  return opts;
}

void RunCoefficientSweep(const std::vector<TimeSeries>& market) {
  bench::Banner("Ablation 1: number of indexed DFT coefficients (k)",
                "More coefficients -> fewer candidates (better filtering) "
                "but higher dimensionality (larger index, fatter nodes).");
  bench::Table table({"k", "index dims", "tree height", "avg candidates",
                      "avg answers", "avg query ms"});
  const int kQueries = static_cast<int>(bench::Scaled(12, 3));
  for (const size_t k : {1u, 2u, 3u, 4u, 6u, 8u}) {
    bench::ScratchDir dir("abl_k" + std::to_string(k));
    DatabaseOptions base;
    base.layout = FeatureLayout::Paper();
    base.layout.num_coefficients = k;
    auto db = bench::BuildDatabase(dir.path(), "abl", market, base);
    double ms = 0.0;
    uint64_t candidates = 0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = market[(q * 67) % market.size()].values();
      const auto range = engine::BatchQuery::Range(query, 2.0);
      QueryStats stats;
      ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), range).stats; }, 3);
      candidates += stats.candidates;
      answers += stats.answers;
    }
    table.AddRow({std::to_string(k),
                  std::to_string(db->options().layout.dims()),
                  std::to_string(db->index()->tree()->height()),
                  bench::Table::Num(static_cast<double>(candidates) / kQueries,
                                    1),
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1),
                  bench::Table::Num(ms / kQueries)});
  }
  table.Print();
}

void RunSpaceComparison(const std::vector<TimeSeries>& market) {
  bench::Banner(
      "Ablation 2: polar (Spol) vs rectangular (Srect) coordinate space",
      "Identity queries behave the same; only Spol admits the moving-"
      "average transform (Theorem 3), which Srect must reject (Theorem 2).");
  bench::Table table({"space", "avg candidates", "avg answers",
                      "avg query ms", "accepts Tmavg20?"});
  const int kQueries = 12;
  for (const bool polar : {true, false}) {
    bench::ScratchDir dir(polar ? "abl_polar" : "abl_rect");
    DatabaseOptions base;
    base.layout = FeatureLayout::Paper();
    base.layout.space =
        polar ? CoordinateSpace::kPolar : CoordinateSpace::kRectangular;
    auto db = bench::BuildDatabase(dir.path(), "abl", market, base);
    double ms = 0.0;
    uint64_t candidates = 0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = market[(q * 67) % market.size()].values();
      const auto range = engine::BatchQuery::Range(query, 2.0);
      QueryStats stats;
      ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), range).stats; }, 3);
      candidates += stats.candidates;
      answers += stats.answers;
    }
    QuerySpec ma;
    ma.transform =
        FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
    const bool accepts =
        engine::SingleResult(
            db->RunBatch(
                {engine::BatchQuery::Range(market[0].values(), 2.0, ma)}))
            .ok();
    table.AddRow({polar ? "polar" : "rectangular",
                  bench::Table::Num(static_cast<double>(candidates) / kQueries,
                                    1),
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1),
                  bench::Table::Num(ms / kQueries),
                  accepts ? "yes" : "no (rejected, Theorem 2)"});
  }
  table.Print();
}

void RunTilingAblation(const std::vector<TimeSeries>& market) {
  bench::Banner("Ablation 3: STR tiling the spectral dims vs all six dims",
                "Both trees are STR packings of the same points; the "
                "shipped index tiles the spectral dims only. A query "
                "without a mean/std window leaves the mean/std dims "
                "unbounded and reads fewer nodes in the shipped tree; one "
                "with a window (here ±5% and ±25% around the query's own "
                "mean and std) can prune less there than in a tree tiled "
                "on every dim. Nodes are counted by the same range-filter "
                "search on both trees.");
  bench::Table table({"build method", "build ms", "tree height",
                      "avg nodes/query", "nodes/query ±5% window",
                      "nodes/query ±25% window"});
  bench::ScratchDir dir("abl_tiling");
  auto db = bench::BuildDatabase(dir.path(), "abl", market, DatabaseOptions{});
  const KIndex& index = *db->index();
  const size_t dims = index.layout().dims();

  // The shipped tree's points, which both packings load.
  std::vector<rtree::Entry> entries;
  const double inf = std::numeric_limits<double>::infinity();
  const spatial::Rect everything(spatial::Point(dims, -inf),
                                 spatial::Point(dims, inf));
  TSQ_CHECK(index.tree()
                ->Search(everything,
                         [&entries](uint64_t id, const spatial::Rect& point) {
                           entries.push_back(rtree::Entry{point, id});
                           return true;
                         })
                .ok());

  // Each query's range filter without a window, then with each window.
  const int kQueries = 12;
  const double kWindowFractions[] = {0.0, 0.05, 0.25};
  std::vector<RangeFilter> filters[3];
  for (int q = 0; q < kQueries; ++q) {
    const RealVec& query = market[(q * 67) % market.size()].values();
    const SeriesFeatures features = index.extractor().Extract(query);
    for (size_t w = 0; w < 3; ++w) {
      const double frac = kWindowFractions[w];
      QuerySpec spec;
      if (frac > 0.0) {
        const double mean_slack = frac * std::fabs(features.mean);
        spec.window = MeanStdWindow{
            features.mean - mean_slack, features.mean + mean_slack,
            (1.0 - frac) * features.std, (1.0 + frac) * features.std};
      }
      const PreparedQuery prepared = PrepareQuery(index, query, spec).value();
      filters[w].push_back(BuildRangeFilter(
          index.extractor(), prepared.coefficients, 2.0,
          index.series_length(), prepared.mirror_error, spec.window));
    }
  }

  const auto ignore = [](uint64_t, const spatial::Rect&) { return true; };
  for (const bool spectral_only : {true, false}) {
    const std::string path =
        dir.path() + (spectral_only ? "/spectral.pages" : "/all.pages");
    auto file = PageFile::Create(path, db->options().page_size).value();
    BufferPool pool(file.get(), db->options().buffer_pool_frames);
    const size_t first_tiled_dim =
        spectral_only ? index.layout().spectral_offset() : 0;
    Stopwatch build_watch;
    auto tree =
        rtree::RStarTree::Build(&pool, dims, entries, first_tiled_dim).value();
    const double build_ms = build_watch.ElapsedMillis();
    std::string nodes_per_query[3];
    for (size_t w = 0; w < 3; ++w) {
      const uint64_t before = obs::ThisThreadIndexCounters().nodes_visited;
      for (const RangeFilter& filter : filters[w]) {
        TSQ_CHECK(tree->Search(filter.rect, ignore).ok());
      }
      const uint64_t nodes =
          obs::ThisThreadIndexCounters().nodes_visited - before;
      nodes_per_query[w] =
          bench::Table::Num(static_cast<double>(nodes) / kQueries, 1);
    }
    table.AddRow({spectral_only ? "STR bulk load" : "STR, all six dims tiled",
                  bench::Table::Num(build_ms, 1),
                  std::to_string(tree->height()), nodes_per_query[0],
                  nodes_per_query[1], nodes_per_query[2]});
  }
  table.Print();
}

void RunBasisAblation(const std::vector<TimeSeries>& market) {
  bench::Banner("Ablation 4: Fourier vs Haar coefficient basis",
                "Both bases are orthonormal (Parseval), so correctness is "
                "identical; filter power on stock-like data differs.");
  bench::Table table({"basis", "avg candidates", "avg answers",
                      "avg query ms"});
  const int kQueries = 12;
  for (const bool use_haar : {false, true}) {
    bench::ScratchDir dir(use_haar ? "abl_haar" : "abl_dft");
    DatabaseOptions base;
    if (use_haar) {
      base.layout = FeatureLayout::Haar(2);  // same 6-D budget as Paper()
    }
    auto db = bench::BuildDatabase(dir.path(), "abl", market, base);
    double ms = 0.0;
    uint64_t candidates = 0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = market[(q * 67) % market.size()].values();
      const auto range = engine::BatchQuery::Range(query, 2.0);
      QueryStats stats;
      ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), range).stats; }, 3);
      candidates += stats.candidates;
      answers += stats.answers;
    }
    table.AddRow({use_haar ? "Haar (k=2)" : "Fourier (k=2, paper)",
                  bench::Table::Num(static_cast<double>(candidates) / kQueries,
                                    1),
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1),
                  bench::Table::Num(ms / kQueries)});
  }
  table.Print();
}

void RunFilterAblation(const std::vector<TimeSeries>& market) {
  bench::Banner(
      "Ablation 5: the range filter (Algorithm 2, step 2)",
      "Candidates per query, each one record read by the refine: the "
      "Sec. 3.1 search rectangle alone (the paper's filter), the ball of "
      "radius eps inside it (Lemma 1's exact leaf test), and the shipped "
      "filter, whose ball shrinks to eps/sqrt(2) under conjugate "
      "symmetry. Precision = answers / candidates.");
  bench::Table table({"query", "rect candidates", "ball-eps candidates",
                      "filter candidates", "avg answers", "rect precision",
                      "ball-eps precision", "filter precision"});
  bench::ScratchDir dir("abl_filter");
  auto db = bench::BuildDatabase(dir.path(), "abl", market, DatabaseOptions{});
  const KIndex& index = *db->index();
  const int kQueries = 12;
  const double eps = 2.0;
  for (const bool transformed : {false, true}) {
    QuerySpec spec;
    std::optional<spatial::AffineMap> map;
    if (transformed) {
      spec.transform = FeatureTransform::Spectral(
          transforms::MovingAverage(index.series_length(), 20));
      map = index.space().ToAffineMap(*spec.transform).value();
    }
    uint64_t rect = 0;
    uint64_t ball = 0;
    uint64_t shipped = 0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = market[(q * 67) % market.size()].values();
      const PreparedQuery prepared = PrepareQuery(index, query, spec).value();
      const RangeFilter at_eps = BuildRangeFilter(
          index.extractor(), prepared.coefficients, eps,
          index.series_length(), /*mirror_error=*/std::nullopt, spec.window);
      const auto count = [&](uint64_t, const spatial::Rect& point) {
        ++rect;
        if (index.space().Keeps(at_eps, point)) ++ball;
        return true;
      };
      const Status searched =
          map.has_value()
              ? index.tree()->SearchTransformed(*map, at_eps.rect, count)
              : index.tree()->Search(at_eps.rect, count);
      TSQ_CHECK(searched.ok());
      const QueryStats stats =
          bench::RunQuery(db.get(), engine::BatchQuery::Range(query, eps, spec))
              .stats;
      shipped += stats.candidates;
      answers += stats.answers;
    }
    const auto per_query = [&](uint64_t total) {
      return bench::Table::Num(static_cast<double>(total) / kQueries, 1);
    };
    const auto precision = [&](uint64_t candidates) {
      return bench::Table::Num(
          candidates == 0 ? 1.0
                          : static_cast<double>(answers) /
                                static_cast<double>(candidates),
          3);
    };
    table.AddRow({transformed ? "Tmavg20" : "plain", per_query(rect),
                  per_query(ball), per_query(shipped), per_query(answers),
                  precision(rect), precision(ball), precision(shipped)});
  }
  table.Print();
}

}  // namespace
}  // namespace tsq

int main() {
  auto market = tsq::workload::MakeStockMarket(31337, tsq::MarketOptions());
  tsq::RunCoefficientSweep(market);
  tsq::RunSpaceComparison(market);
  tsq::RunTilingAblation(market);
  tsq::RunBasisAblation(market);
  tsq::RunFilterAblation(market);
  return 0;
}
