// Copyright (c) 2026 The tsq Authors.

#include "workload/paper_data.h"

#include "common/random.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace workload {
namespace paper {

TimeSeries Fig1SeriesS1() {
  return TimeSeries({36, 38, 40, 38, 42, 38, 36, 36, 37, 38, 39, 38, 40, 38,
                     37},
                    "s1");
}

TimeSeries Fig1SeriesS2() {
  return TimeSeries({40, 37, 37, 42, 41, 35, 40, 35, 34, 42, 38, 35, 45, 36,
                     34},
                    "s2");
}

TimeSeries Fig2SeriesS() {
  return TimeSeries({20, 20, 21, 21, 20, 20, 23, 23}, "s");
}

TimeSeries Fig2SeriesP() { return TimeSeries({20, 21, 20, 23}, "p"); }

namespace {

// Fixed seeds: the stand-ins must be identical across runs and platforms so
// the figure benchmarks' numbers are reproducible.
constexpr uint64_t kTrendingSeed = 20260101;
constexpr uint64_t kOppositeSeed = 20260202;
constexpr uint64_t kDissimilarSeed = 20260303;
constexpr size_t kDays = 128;

}  // namespace

std::pair<TimeSeries, TimeSeries> TrendingPair() {
  Rng rng(kTrendingSeed);
  // A stock and a fund tracking the same underlying trend at a different
  // price level and sensitivity, with substantial *day-to-day* price noise
  // on the fund (the BBA/ZTR shape: shifting and scaling help some, and
  // the 20-day moving average — which removes the iid daily noise but not
  // the shared trend — produces the big drop).
  RealVec base = GeometricWalk(&rng, kDays, 9.5, 0.0015, 0.02);

  // The fund's log price tracks 12% of the stock's log excursions.
  RealVec tracked(kDays);
  for (size_t t = 0; t < kDays; ++t) {
    tracked[t] = 0.12 * (std::log(base[t]) - std::log(base[0]));
  }
  // Scale the iid noise to the tracked signal so the normal-form distance
  // is dominated by daily fluctuations the moving average removes.
  double mean = 0.0;
  for (double v : tracked) mean += v;
  mean /= static_cast<double>(kDays);
  double var = 0.0;
  for (double v : tracked) var += (v - mean) * (v - mean);
  const double signal_sd = std::sqrt(var / static_cast<double>(kDays));

  RealVec partner(kDays);
  for (size_t t = 0; t < kDays; ++t) {
    partner[t] =
        8.6 * std::exp(tracked[t] + 0.45 * signal_sd * rng.Normal());
  }
  return {TimeSeries(std::move(base), "BBA.sim"),
          TimeSeries(std::move(partner), "ZTR.sim")};
}

std::pair<TimeSeries, TimeSeries> OppositePair() {
  Rng rng(kOppositeSeed);
  RealVec base = GeometricWalk(&rng, kDays, 22.0, 0.002, 0.018);
  RealVec partner(kDays);
  partner[0] = 33.0;
  for (size_t t = 1; t < kDays; ++t) {
    const double r = std::log(base[t] / base[t - 1]);
    partner[t] = partner[t - 1] * std::exp(-r + 0.002 * rng.Normal());
  }
  return {TimeSeries(std::move(base), "CC.sim"),
          TimeSeries(std::move(partner), "VAR.sim")};
}

std::pair<TimeSeries, TimeSeries> DissimilarPair() {
  Rng rng(kDissimilarSeed);
  // Independent walks with different drifts: no amount of smoothing aligns
  // them (the DMIC/MXF shape).
  RealVec a = GeometricWalk(&rng, kDays, 15.0, 0.004, 0.03);
  RealVec b = GeometricWalk(&rng, kDays, 28.0, -0.003, 0.012);
  return {TimeSeries(std::move(a), "DMIC.sim"),
          TimeSeries(std::move(b), "MXF.sim")};
}

}  // namespace paper
}  // namespace workload
}  // namespace tsq
