// Copyright (c) 2026 The tsq Authors.
//
// Reproduces Figure 9: range-query time versus the number of sequences
// (500..12000) at fixed length 128, identity transformation vs no
// transformation. Expected shape: the curves track each other; index
// traversal with transformations does not deteriorate as the relation
// grows.

#include <cstdio>

#include "bench_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Figure 9: time per query varying the number of sequences",
      "Sequence length 128; identity transformation vs no transformation.\n"
      "Paper shape: same result as Figure 8 — a small constant gap.");

  bench::Table table({"sequences", "no-transform ms", "with-transform ms",
                      "gap ms", "nodes (plain)", "nodes (transf)",
                      "avg answers"});

  const size_t kLength = 128;
  const int kQueries = static_cast<int>(bench::Scaled(25, 4));
  const double kEps = 0.12 * 11.3137;  // 0.12 * sqrt(128), as in Figure 8

  for (const size_t full_count :
       {500u, 1000u, 2000u, 4000u, 8000u, 12000u}) {
    const size_t count = bench::Scaled(full_count, 64);
    bench::ScratchDir dir("fig09_" + std::to_string(count));
    auto data = workload::MakeRandomWalkDataset(907 + count, count, kLength);
    auto db = bench::BuildDatabase(dir.path(), "fig09", data);

    QuerySpec identity_spec;
    identity_spec.transform =
        FeatureTransform::Spectral(transforms::Identity(kLength));

    double plain_ms = 0.0;
    double transformed_ms = 0.0;
    uint64_t plain_nodes = 0;
    uint64_t transformed_nodes = 0;
    uint64_t answers = 0;

    for (int q = 0; q < kQueries; ++q) {
      const RealVec& query = data[(q * 131) % count].values();
      const auto plain = engine::BatchQuery::Range(query, kEps);
      const auto transformed =
          engine::BatchQuery::Range(query, kEps, identity_spec);
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

    table.AddRow({std::to_string(count), bench::Table::Num(plain_ms),
                  bench::Table::Num(transformed_ms),
                  bench::Table::Num(transformed_ms - plain_ms),
                  std::to_string(plain_nodes / kQueries),
                  std::to_string(transformed_nodes / kQueries),
                  bench::Table::Num(static_cast<double>(answers) / kQueries,
                                    1)});
  }
  table.Print();
  std::printf(
      "\n  shape check: the gap column stays roughly constant while the "
      "relation grows 24x.\n");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
