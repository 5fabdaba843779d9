// Copyright (c) 2026 The tsq Authors.
//
// Hedging pairs: the paper's Example 2.2 as an application. Find all pairs
// of stocks that move in approximately *opposite* ways — candidates for a
// hedge — using the reversing transformation:
//
//   "Transformation Trev can be used to obtain all the pairs of series
//    that move in opposite directions. This can be formulated in our query
//    language for a given relation r as a spatial join between r and
//    Trev(r)."
//
// For every stock q the example poses a range query against the
// Trev-transformed index (Algorithm 2 with the on-the-fly transformed
// traversal): a match x means D(-NF(x), NF(q)) <= eps, i.e. x's normalized
// price path mirrors q's.
//
// Build & run:  ./build/examples/hedging_pairs

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <vector>

#include "tsq.h"

int main() {
  using namespace tsq;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "tsq_hedging").string();
  std::filesystem::create_directories(dir);

  // A market with a handful of genuinely opposite-moving pairs planted in
  // it (plus ~1000 unrelated stocks).
  workload::StockMarketOptions market_options;
  market_options.opposite_pairs = 8;
  market_options.opposite_noise = 0.005;  // tight mirrors
  auto market = workload::MakeStockMarket(/*seed=*/424242, market_options);

  DatabaseOptions options;
  options.directory = dir;
  options.name = "hedge";
  auto db = Database::Create(options).value();
  for (const TimeSeries& stock : market) {
    db->Insert(stock.name(), stock.values()).value();
  }
  TSQ_CHECK(db->BuildIndex().ok());
  std::printf("market: %llu stocks x %zu days\n",
              static_cast<unsigned long long>(db->size()),
              db->series_length());

  // --- the reverse join: r against Trev(r) ---------------------------------
  // kDataOnly applies Trev to the indexed data side only (reversing both
  // sides would cancel out). Trev is safe in both coordinate spaces: its
  // stretch vector is real (-1) and its translation is zero.
  QuerySpec spec;
  spec.transform = FeatureTransform::Spectral(transforms::Reverse(128));
  spec.mode = TransformMode::kDataOnly;
  const double kEps = 0.8;

  std::set<std::pair<SeriesId, SeriesId>> hedges;
  std::map<std::pair<SeriesId, SeriesId>, double> pair_distance;
  // Every stock probes the index once: one batch, run across the engine's
  // workers; results[q] answers stock q with its own stats.
  std::vector<engine::BatchQuery> probes;
  for (SeriesId q = 0; q < db->size(); ++q) {
    probes.push_back(
        engine::BatchQuery::Range(db->Get(q).value().values, kEps, spec));
  }
  engine::BatchStats batch;
  const auto results = db->RunBatch(probes, /*threads=*/0, &batch).value();
  const uint64_t total_candidates = batch.aggregate.candidates;
  for (SeriesId q = 0; q < results.size(); ++q) {
    TSQ_CHECK(results[q].status.ok());
    for (const Match& m : results[q].matches) {
      if (m.id == q) continue;
      const auto key = std::minmax(q, m.id);
      if (hedges.insert({key.first, key.second}).second) {
        pair_distance[{key.first, key.second}] = m.distance;
      }
    }
  }

  std::printf(
      "\nhedge candidates (normalized price path of one mirrors the "
      "other, eps = %.1f):\n",
      kEps);
  for (const auto& [pair, d] : pair_distance) {
    std::printf("  %-10s <-> %-10s  (mirror distance %.3f)\n",
                market[pair.first].name().c_str(),
                market[pair.second].name().c_str(), d);
  }
  std::printf(
      "\nfound %zu pairs (planted opposite pairs: %zu, named OPPa/OPPb). "
      "The index filtered %llu candidates across %llu queries instead of "
      "comparing all %llu stocks per query.\n",
      hedges.size(), market_options.opposite_pairs,
      static_cast<unsigned long long>(total_candidates),
      static_cast<unsigned long long>(db->size()),
      static_cast<unsigned long long>(db->size()));
  return 0;
}
