// Copyright (c) 2026 The tsq Authors.
//
// Shape search: the paper's introductory query — "stocks that increased
// linearly up to October 1987, and then crashed" — answered with the
// [FRM94]-style subsequence index. The query pattern is drawn by hand
// (a ramp followed by a cliff); the index finds every place in the market
// where that shape occurs, no matter which stock or when.
//
// Build & run:  ./build/examples/shape_search

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "tsq.h"

int main() {
  using namespace tsq;

  const size_t kDays = 256;
  const size_t kWindow = 48;

  // --- a market with planted boom-crash episodes ---------------------------
  workload::StockMarketOptions market_options;
  market_options.num_series = 400;
  market_options.length = kDays;
  market_options.similar_pairs = 0;
  market_options.opposite_pairs = 0;
  auto market = workload::MakeStockMarket(/*seed=*/1987, market_options);

  // Plant a ramp-then-crash episode into a few stocks at known offsets.
  Rng rng(10);
  struct Plant {
    size_t series;
    size_t offset;
  };
  std::vector<Plant> plants = {{7, 60}, {123, 150}, {289, 30}};
  for (const Plant& plant : plants) {
    RealVec values = market[plant.series].values();
    const double base = values[plant.offset];
    for (size_t t = 0; t < kWindow; ++t) {
      const double ramp_len = 0.75 * kWindow;
      double v;
      if (static_cast<double>(t) < ramp_len) {
        v = base * (1.0 + 0.5 * static_cast<double>(t) / ramp_len);  // +50%
      } else {
        v = base * (1.5 - 1.0 * (static_cast<double>(t) - ramp_len) /
                              (kWindow - ramp_len));  // crash to 50%
      }
      values[plant.offset + t] = v * (1.0 + 0.004 * rng.Normal());
    }
    market[plant.series] = TimeSeries(values, market[plant.series].name());
  }

  // --- index every sliding window -------------------------------------------
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tsq_shape").string();
  std::filesystem::create_directories(dir);
  SubsequenceIndexOptions options;
  options.window = kWindow;
  options.coefficients = 4;
  options.trail_piece = 16;
  options.path = dir + "/shape.pages";
  auto index = SubsequenceIndex::Build(options, market).value();
  std::printf(
      "indexed %llu sliding windows (%llu trail pieces) over %zu stocks\n",
      static_cast<unsigned long long>(index->num_windows()),
      static_cast<unsigned long long>(index->num_pieces()), market.size());

  // --- the query shape: ramp then cliff, in normalized units ---------------
  // Searching raw prices would hard-code a price level; instead the probe
  // is scaled to each plant's neighborhood. Here we demonstrate with the
  // level of the first plant; a production screener would normalize
  // windows.
  const double base = market[plants[0].series].values()[plants[0].offset];
  RealVec shape(kWindow);
  for (size_t t = 0; t < kWindow; ++t) {
    const double ramp_len = 0.75 * kWindow;
    shape[t] = (static_cast<double>(t) < ramp_len)
                   ? base * (1.0 + 0.5 * static_cast<double>(t) / ramp_len)
                   : base * (1.5 - 1.0 * (static_cast<double>(t) - ramp_len) /
                                       (kWindow - ramp_len));
  }

  auto fetch = [&market](SeriesId id) -> Result<RealVec> {
    return market[id].values();
  };
  std::vector<SubsequenceMatch> matches;
  QueryStats stats;
  TSQ_CHECK(index
                ->RangeSearch(shape, /*epsilon=*/0.05 * base * 2, fetch,
                              &matches, &stats)
                .ok());

  std::printf("\nboom-crash occurrences (eps scaled to price level):\n");
  for (const SubsequenceMatch& m : matches) {
    std::printf("  %-12s day %3zu  distance %.3f\n",
                market[m.id].name().c_str(), m.offset, m.distance);
  }
  std::printf(
      "\nplanted at: %s day %zu (others are at different price levels and "
      "need their own scaled probes)\n",
      market[plants[0].series].name().c_str(), plants[0].offset);
  std::printf("(%llu candidate trail pieces of %llu total)\n",
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(index->num_pieces()));
  return 0;
}
