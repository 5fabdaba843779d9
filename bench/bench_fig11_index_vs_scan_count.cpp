// Copyright (c) 2026 The tsq Authors.
//
// Reproduces Figure 11: index-with-transformations versus the tuned
// sequential scan, varying the number of sequences at fixed length 128.
// Expected shape: the index wins everywhere and the gap widens with the
// relation size.

#include <cstdio>

#include "bench_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Figure 11: index vs sequential scan, varying the number of sequences",
      "Sequence length 128; both methods run the same transformed queries.\n"
      "Paper shape: index far below scan; gap grows with the count.");

  bench::Table table(
      {"sequences", "index ms", "seqscan ms", "speedup", "avg answers"});

  const size_t kLength = 128;
  const int kQueries = static_cast<int>(bench::Scaled(10, 3));
  const double kEps = 0.12 * 11.3137;  // matches Figures 8/9

  for (const size_t full_count :
       {500u, 1000u, 2000u, 4000u, 8000u, 12000u}) {
    const size_t count = bench::Scaled(full_count, 64);
    bench::ScratchDir dir("fig11_" + std::to_string(count));
    auto data = workload::MakeRandomWalkDataset(1117 + count, count, kLength);
    auto db = bench::BuildDatabase(dir.path(), "fig11", data);

    QuerySpec spec;
    spec.transform =
        FeatureTransform::Spectral(transforms::Identity(kLength));

    double index_ms = 0.0;
    double scan_ms = 0.0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = data[(q * 211) % count].values();
      const auto indexed = engine::BatchQuery::Range(query, kEps, spec);
      QueryStats stats;
      index_ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), indexed).stats; }, 2);
      answers += stats.answers;
      std::vector<Match> scanned;
      scan_ms += bench::MeanMillis(
          [&]() {
            TSQ_CHECK(SeqScanRangeQuery(*db->relation(), db->extractor(),
                                        query, kEps, spec,
                                        /*early_abandon=*/true, &scanned,
                                        /*stats=*/nullptr)
                          .ok());
          },
          2);
    }
    index_ms /= kQueries;
    scan_ms /= kQueries;

    table.AddRow({std::to_string(count), bench::Table::Num(index_ms),
                  bench::Table::Num(scan_ms),
                  bench::Table::Num(scan_ms / index_ms, 1) + "x",
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1)});
  }
  table.Print();
  std::printf(
      "\n  shape check: speedup > 1 on every row and grows with the "
      "relation size.\n");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
