// Copyright (c) 2026 The tsq Authors.
//
// Stock screener: the paper's Sec. 2 scenario end to end. Simulate a
// market of 1067 stocks (the paper's data set shape), index it, and screen
// for stocks whose *smoothed trend* matches a target stock — the "find
// stocks that behave in approximately the same way" query from the paper's
// introduction, with the 20-day moving average removing short-term
// fluctuations ([EM69]-style technical analysis).
//
// Build & run:  ./build/examples/stock_screener

#include <cstdio>
#include <filesystem>

#include "tsq.h"

int main() {
  using namespace tsq;

  const std::string dir =
      (std::filesystem::temp_directory_path() / "tsq_screener").string();
  std::filesystem::create_directories(dir);

  // --- simulate and load the market ---------------------------------------
  workload::StockMarketOptions market_options;  // 1067 stocks x 128 days
  auto market = workload::MakeStockMarket(/*seed=*/2026, market_options);

  DatabaseOptions options;
  options.directory = dir;
  options.name = "market";
  auto db = Database::Create(options).value();
  for (const TimeSeries& stock : market) {
    db->Insert(stock.name(), stock.values()).value();
  }
  TSQ_CHECK(db->BuildIndex().ok());
  std::printf("market: %llu stocks, %zu trading days each\n",
              static_cast<unsigned long long>(db->size()),
              db->series_length());

  // --- screen for trend-alikes of a target stock --------------------------
  // SIMa0000 has a planted partner (SIMb0000) whose day-to-day prices look
  // different but whose smoothed trend matches.
  const TimeSeries& target = market[0];
  std::printf("\ntarget stock: %s (mean %.2f, daily close range %.2f-%.2f)\n",
              target.name().c_str(), target.Mean(), target.Min(),
              target.Max());

  QuerySpec trend;
  trend.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));

  // A single query is a one-element batch, run on this thread.
  using engine::BatchQuery;
  auto ask = [&db](BatchQuery q) {
    return engine::SingleResult(db->RunBatch({std::move(q)})).value().matches;
  };

  const auto matches =
      ask(BatchQuery::Range(target.values(), /*epsilon=*/0.6, trend));
  std::printf("\nstocks within 0.6 of the target's 20-day smoothed trend:\n");
  for (const Match& m : matches) {
    if (m.name == target.name()) continue;  // skip self
    std::printf("  %-10s distance %.3f\n", m.name.c_str(), m.distance);
  }

  // Without smoothing, the partner is NOT within range: short-term noise
  // dominates the raw distance. This is the paper's Example 1.1 at market
  // scale.
  const auto raw = ask(BatchQuery::Range(target.values(), /*epsilon=*/0.6));
  std::printf(
      "\nsame query without smoothing finds %zu stocks (and %zu with) — "
      "the moving average is what surfaces the trend-alikes.\n",
      raw.size() - 1, matches.size() - 1);

  // --- top-5 trend neighbors, regardless of threshold ---------------------
  const auto top = ask(BatchQuery::Knn(target.values(), /*k=*/6, trend));
  std::printf("\ntop trend neighbors (excluding self):\n");
  for (const Match& m : top) {
    if (m.name == target.name()) continue;
    std::printf("  %-10s distance %.3f\n", m.name.c_str(), m.distance);
  }

  // --- GK95-style screen: same shape AND a specific price band ------------
  QuerySpec banded = trend;
  banded.window = MeanStdWindow{20.0, 60.0, 0.0, 1e9};
  const auto in_band =
      ask(BatchQuery::Range(target.values(), /*epsilon=*/2.0, banded));
  std::printf(
      "\ntrend-alikes (eps 2.0) whose mean price lies in [20, 60]: %zu\n",
      in_band.size());
  for (const Match& m : in_band) {
    std::printf("  %-10s distance %.3f\n", m.name.c_str(), m.distance);
  }
  return 0;
}
