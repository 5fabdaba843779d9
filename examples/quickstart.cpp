// Copyright (c) 2026 The tsq Authors.
//
// Quickstart: the 60-second tour of tsq.
//
//   1. create a database,
//   2. insert some time series,
//   3. build the k-index (R*-tree over DFT features),
//   4. run similarity queries — plain, smoothed (moving average), and
//      k-nearest-neighbor.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <filesystem>

#include "tsq.h"

int main() {
  using namespace tsq;

  // --- 1. Create a database ------------------------------------------------
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tsq_quickstart").string();
  std::filesystem::create_directories(dir);
  DatabaseOptions options;
  options.directory = dir;
  options.name = "quickstart";
  // options.layout defaults to the paper's 6-D layout: (mean, std) plus
  // the polar coordinates of DFT coefficients X_1, X_2 of the normal form.
  auto db = Database::Create(options).value();

  // --- 2. Insert series ----------------------------------------------------
  // The two sequences of the paper's Example 1.1 plus a few random walks.
  db->Insert("s1", workload::paper::Fig1SeriesS1().values()).value();
  db->Insert("s2", workload::paper::Fig1SeriesS2().values()).value();
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "walk%02d", i);
    db->Insert(name, workload::RandomWalkSeries(&rng, 15, {})).value();
  }
  std::printf("inserted %llu series of length %zu\n",
              static_cast<unsigned long long>(db->size()),
              db->series_length());

  // --- 3. Build the index --------------------------------------------------
  TSQ_CHECK(db->BuildIndex().ok());

  // --- 4. Query ------------------------------------------------------------
  const RealVec query = workload::paper::Fig1SeriesS1().values();

  // A single query is a one-element batch: RunBatch({q}) runs it on this
  // thread, and engine::SingleResult unwraps its answers and stats.
  using engine::BatchQuery;
  auto ask = [&db](BatchQuery q) {
    return engine::SingleResult(db->RunBatch({std::move(q)})).value();
  };

  // 4a. Plain range query: who is within eps of s1's normal form?
  const auto plain = ask(BatchQuery::Range(query, /*epsilon=*/2.0)).matches;
  std::printf("\nplain range query (eps = 2.0): %zu matches\n", plain.size());
  for (const Match& m : plain) {
    std::printf("  %-8s distance %.3f\n", m.name.c_str(), m.distance);
  }

  // 4b. The paper's motivating query: s1 and s2 look different day to day
  // but nearly identical after 3-day moving-average smoothing.
  QuerySpec smoothed;
  smoothed.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(15, 3));
  const auto ma =
      ask(BatchQuery::Range(query, /*epsilon=*/2.0, smoothed)).matches;
  std::printf("\nsmoothed range query (Tmavg3, eps = 2.0): %zu matches\n",
              ma.size());
  for (const Match& m : ma) {
    std::printf("  %-8s distance %.3f%s\n", m.name.c_str(), m.distance,
                m.name == "s2" ? "   <- found only after smoothing" : "");
  }

  // 4c. Nearest neighbors under the same smoothing.
  const engine::BatchResult knn =
      ask(BatchQuery::Knn(query, /*k=*/3, smoothed));
  std::printf("\n3 nearest neighbors under Tmavg3:\n");
  for (const Match& m : knn.matches) {
    std::printf("  %-8s distance %.3f\n", m.name.c_str(), m.distance);
  }

  // Each result carries its own query's stats: how much work the index did.
  const QueryStats& stats = knn.stats;
  std::printf(
      "\nkNN query stats: %llu candidates, %llu node accesses, %.3f ms\n",
      static_cast<unsigned long long>(stats.candidates),
      static_cast<unsigned long long>(stats.nodes_visited), stats.elapsed_ms);
  return 0;
}
