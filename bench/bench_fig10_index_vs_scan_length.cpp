// Copyright (c) 2026 The tsq Authors.
//
// Reproduces Figure 10: index-with-transformations versus the tuned
// sequential scan (frequency-domain storage + early abandoning, exactly
// the paper's "good implementation"), varying the sequence length at 1,000
// sequences. Expected shape: the index wins everywhere and the gap widens
// with the length.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Figure 10: index vs sequential scan, varying the sequence length",
      "1000 synthetic sequences; both methods run the same transformed "
      "queries.\nPaper shape: index far below scan; gap grows with length.");

  bench::Table table({"length", "index ms", "seqscan ms", "speedup",
                      "avg answers"});

  const size_t kNumSeries = bench::Scaled(1000, 64);
  const int kQueries = static_cast<int>(bench::Scaled(15, 3));

  for (const size_t length : {64u, 128u, 256u, 512u, 1024u}) {
    bench::ScratchDir dir("fig10_" + std::to_string(length));
    auto data =
        workload::MakeRandomWalkDataset(1013 + length, kNumSeries, length);
    auto db = bench::BuildDatabase(dir.path(), "fig10", data);

    const double eps = 0.12 * std::sqrt(static_cast<double>(length));
    QuerySpec spec;
    spec.transform =
        FeatureTransform::Spectral(transforms::Identity(length));

    double index_ms = 0.0;
    double scan_ms = 0.0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = data[(q * 61) % kNumSeries].values();
      const auto indexed = engine::BatchQuery::Range(query, eps, spec);
      QueryStats stats;
      index_ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), indexed).stats; }, 2);
      answers += stats.answers;
      std::vector<Match> scanned;
      scan_ms += bench::MeanMillis(
          [&]() {
            TSQ_CHECK(SeqScanRangeQuery(*db->relation(), db->extractor(),
                                        query, eps, spec,
                                        /*early_abandon=*/true, &scanned,
                                        /*stats=*/nullptr)
                          .ok());
          },
          2);
    }
    index_ms /= kQueries;
    scan_ms /= kQueries;

    table.AddRow({std::to_string(length), bench::Table::Num(index_ms),
                  bench::Table::Num(scan_ms),
                  bench::Table::Num(scan_ms / index_ms, 1) + "x",
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1)});
  }
  table.Print();
  std::printf(
      "\n  shape check: speedup > 1 on every row and grows with the "
      "sequence length.\n");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
