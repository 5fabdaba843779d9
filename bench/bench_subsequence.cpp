// Copyright (c) 2026 The tsq Authors.
//
// Extension bench (not a paper artifact): the [FRM94]-style subsequence
// index (ST-index over sliding-window DFT trails) against the
// brute-force sliding scan, across data sizes and trail-piece lengths.
// The paper cites [FRM94] as the subsequence counterpart of its
// whole-match indexing; this harness shows the same filter-and-refine
// economics apply under tsq's substrate.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/subsequence.h"
#include "obs/trace.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Subsequence matching: ST-index vs sliding scan ([FRM94] extension)",
      "Window 64, 3 coefficients; queries are data windows plus noise.");

  bench::Table table({"series x length", "windows", "trail piece", "pieces",
                      "index ms", "scan ms", "windows verified",
                      "candidate pieces", "avg nodes/query", "avg answers"});

  const size_t kWindow = 64;
  const int kQueries = static_cast<int>(bench::Scaled(10, 2));
  struct Config {
    size_t count;
    size_t length;
    size_t piece;
  };
  const Config configs[] = {{bench::Scaled(50, 8), 512, 8},
                            {bench::Scaled(50, 8), 512, 32},
                            {bench::Scaled(200, 16), 512, 16},
                            {bench::Scaled(100, 8), 2048, 16}};

  for (const Config& config : configs) {
    bench::ScratchDir dir("subseq");
    SubsequenceIndexOptions options;
    options.window = kWindow;
    options.coefficients = 3;
    options.trail_piece = config.piece;
    options.path = dir.path() + "/subseq.pages";
    auto series =
        workload::MakeRandomWalkDataset(2026, config.count, config.length);
    auto index = SubsequenceIndex::Build(options, series).value();
    auto fetch = [&series](SeriesId id) -> Result<RealVec> {
      return series[id].values();
    };

    Rng rng(9);
    double index_ms = 0.0;
    double scan_ms = 0.0;
    uint64_t candidates = 0;
    uint64_t answers = 0;
    uint64_t verified = 0;
    uint64_t nodes = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& src =
          series[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(config.count) - 1))]
              .values();
      const size_t off = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(config.length - kWindow)));
      RealVec query(src.begin() + static_cast<ptrdiff_t>(off),
                    src.begin() + static_cast<ptrdiff_t>(off + kWindow));
      for (double& v : query) v += rng.Uniform(-0.05, 0.05);

      std::vector<SubsequenceMatch> out;
      QueryStats stats;
      const uint64_t nodes_before =
          obs::ThisThreadIndexCounters().nodes_visited;
      Stopwatch w1;
      TSQ_CHECK(index->RangeSearch(query, 1.0, fetch, &out, &stats).ok());
      index_ms += w1.ElapsedMillis();
      nodes += obs::ThisThreadIndexCounters().nodes_visited - nodes_before;
      candidates += stats.candidates;
      verified += stats.records_scanned;
      answers += out.size();

      Stopwatch w2;
      TSQ_CHECK(
          ScanSubsequences(series, kWindow, query, 1.0, &out).ok());
      scan_ms += w2.ElapsedMillis();
    }
    index_ms /= kQueries;
    scan_ms /= kQueries;

    table.AddRow(
        {std::to_string(config.count) + "x" + std::to_string(config.length),
         std::to_string(index->num_windows()),
         std::to_string(config.piece), std::to_string(index->num_pieces()),
         bench::Table::Num(index_ms), bench::Table::Num(scan_ms),
         bench::Table::Num(static_cast<double>(verified) / kQueries, 1) +
             " of " + std::to_string(index->num_windows()),
         bench::Table::Num(static_cast<double>(candidates) / kQueries, 1),
         bench::Table::Num(static_cast<double>(nodes) / kQueries, 1),
         bench::Table::Num(static_cast<double>(answers) / kQueries, 1)});
  }
  table.Print();
  std::printf(
      "\n  shape: the index verifies a vanishing fraction of the windows "
      "(the [FRM94] filter property). Wall-clock still favors the scan at "
      "RAM scale because early abandoning on raw prices rejects most "
      "offsets after ~1 sample; the index's advantage is its verified-work "
      "bound, which survives when windows are expensive to fetch (disk) or "
      "compare (long windows, no abandon).\n");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
