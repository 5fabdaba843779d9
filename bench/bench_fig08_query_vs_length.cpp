// Copyright (c) 2026 The tsq Authors.
//
// Reproduces Figure 8: range-query time versus sequence length (64..1024)
// on 1,000 synthetic random-walk sequences, comparing
//   (a) queries through the index WITH the transformation machinery
//       engaged (identity transformation, exactly as the paper does for a
//       precise comparison), against
//   (b) plain index queries with no transformations.
// Expected shape: the two curves differ by a small constant (the CPU cost
// of the on-the-fly MBR transformation); disk/node accesses are identical.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Figure 8: time per query varying the sequence length",
      "1000 synthetic sequences; identity transformation vs no "
      "transformation.\nPaper shape: constant gap (CPU only), identical "
      "disk accesses.");

  bench::Table table({"length", "no-transform ms", "with-transform ms",
                      "gap ms", "nodes (plain)", "nodes (transf)",
                      "avg answers"});

  const size_t kNumSeries = bench::Scaled(1000, 64);
  const int kQueries = static_cast<int>(bench::Scaled(25, 4));

  for (const size_t length : {64u, 128u, 256u, 512u, 1024u}) {
    bench::ScratchDir dir("fig08_" + std::to_string(length));
    auto data = workload::MakeRandomWalkDataset(813 + length, kNumSeries,
                                                length);
    auto db = bench::BuildDatabase(dir.path(), "fig08", data);

    // Selective threshold, scaled so answer sets stay comparable across
    // lengths (normal-form spectra have energy ~ length).
    const double eps = 0.12 * std::sqrt(static_cast<double>(length));

    QuerySpec identity_spec;
    identity_spec.transform =
        FeatureTransform::Spectral(transforms::Identity(length));

    double plain_ms = 0.0;
    double transformed_ms = 0.0;
    uint64_t plain_nodes = 0;
    uint64_t transformed_nodes = 0;
    uint64_t answers = 0;

    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query =
          data[(q * 37) % kNumSeries].values();  // stored series as queries
      const auto plain = engine::BatchQuery::Range(query, eps);
      const auto transformed =
          engine::BatchQuery::Range(query, eps, identity_spec);
      QueryStats stats;

      plain_ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), plain).stats; }, 3);
      plain_nodes += stats.nodes_visited;

      transformed_ms += bench::MeanMillis(
          [&]() { stats = bench::RunQuery(db.get(), transformed).stats; }, 3);
      transformed_nodes += stats.nodes_visited;
      answers += stats.answers;
    }
    plain_ms /= kQueries;
    transformed_ms /= kQueries;

    table.AddRow({std::to_string(length), bench::Table::Num(plain_ms),
                  bench::Table::Num(transformed_ms),
                  bench::Table::Num(transformed_ms - plain_ms),
                  std::to_string(plain_nodes / kQueries),
                  std::to_string(transformed_nodes / kQueries),
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1)});
  }
  table.Print();
  std::printf(
      "\n  shape check: node accesses identical per row; the transform "
      "column exceeds the plain column by a small CPU-only constant.\n");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
