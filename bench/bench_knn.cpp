// Copyright (c) 2026 The tsq Authors.
//
// Nearest-neighbor queries (Sec. 4: "similarly ... nearest neighbor
// queries can be processed efficiently using the index"). The paper claims
// but does not plot NN performance; this harness measures the optimal
// multi-step kNN (best-first lower-bound streaming + full-length
// verification) against the scan, with and without transformations, on
// the paper-shaped stock relation, and counts the candidates each query
// verifies and the index nodes it reads.

#include <cstdio>
#include <cstdint>
#include <cstring>

#include "bench_util.h"
#include "common/macros.h"
#include "transform/builtin.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Order-sensitive answer checksum; bitwise-compared across iterations so
// the optimizer cannot elide the verified work and a nondeterministic
// answer set aborts the bench instead of silently skewing it.
double MatchChecksum(const std::vector<Match>& matches) {
  double acc = 0.0;
  for (const Match& m : matches) {
    acc = acc * 1.0009765625 + m.distance + static_cast<double>(m.id);
  }
  return acc;
}

void Run() {
  bench::Banner(
      "k-nearest-neighbor queries (Sec. 4 capability; no paper figure)",
      "Simulated stock relation, 1067 x 128; optimal multi-step kNN vs "
      "full scan ranking.");

  bench::ScratchDir dir("knn");
  auto market = workload::MakeStockMarket(481516);
  market.resize(bench::Scaled(market.size(), 128));
  auto db = bench::BuildDatabase(dir.path(), "knn", market);
  const int kQueries = static_cast<int>(bench::Scaled(10, 2));

  bench::Table table({"k", "transform", "index ms", "scan ms", "speedup",
                      "avg candidates verified", "avg nodes/query"});

  for (const size_t k : {1u, 10u, 50u}) {
    for (const bool transformed : {false, true}) {
      QuerySpec spec;
      if (transformed) {
        spec.transform =
            FeatureTransform::Spectral(transforms::MovingAverage(128, 20));
      }
      double index_ms = 0.0;
      double scan_ms = 0.0;
      uint64_t verified = 0;
      uint64_t nodes = 0;
      for (int q = 0; q < kQueries; ++q) {
        const RealVec& query = market[(q * 97) % market.size()].values();
        const auto knn = engine::BatchQuery::Knn(query, k, spec);
        const double expected =
            MatchChecksum(bench::RunQuery(db.get(), knn).matches);
        QueryStats stats;
        index_ms += bench::MeanMillis(
            [&]() {
              const engine::BatchResult got = bench::RunQuery(db.get(), knn);
              TSQ_CHECK_MSG(Bits(MatchChecksum(got.matches)) == Bits(expected),
                            "kNN answer drift across iterations");
              stats = got.stats;
            },
            2);
        verified += stats.verified;
        nodes += stats.nodes_visited;
        // Scan ranking: a full pass with an infinite threshold, then
        // take the top k (what a user without the index would run).
        std::vector<Match> scanned;
        const auto scan = [&]() {
          TSQ_CHECK(SeqScanRangeQuery(*db->relation(), db->extractor(), query,
                                      1e18, spec, /*early_abandon=*/false,
                                      &scanned, /*stats=*/nullptr)
                        .ok());
          return MatchChecksum(scanned);
        };
        const double scan_expected = scan();
        scan_ms += bench::MeanMillis(
            [&]() {
              TSQ_CHECK_MSG(Bits(scan()) == Bits(scan_expected),
                            "scan answer drift across iterations");
            },
            2);
      }
      index_ms /= kQueries;
      scan_ms /= kQueries;
      table.AddRow({std::to_string(k), transformed ? "mavg20" : "none",
                    bench::Table::Num(index_ms), bench::Table::Num(scan_ms),
                    bench::Table::Num(scan_ms / index_ms, 1) + "x",
                    bench::Table::Num(
                        static_cast<double>(verified) / kQueries, 1),
                    bench::Table::Num(static_cast<double>(nodes) / kQueries,
                                      1)});
    }
  }
  table.Print();
  std::printf(
      "\n  shape: the multi-step kNN verifies a handful of candidates and "
      "beats the full-ranking scan; the margin narrows as k grows (more "
      "verification work) — the classic GEMINI NN economics.\n");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
