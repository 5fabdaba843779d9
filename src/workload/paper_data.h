// Copyright (c) 2026 The tsq Authors.
//
// The sequences printed verbatim in the paper, plus fixed-seed simulated
// stand-ins for its real-stock example pairs (the original data set is
// unavailable).
//
// Exact data:
//   * Fig. 1: s1, s2 with D(s1,s2) = 11.92 and D(MA3(s1), MA3(s2)) = 0.47;
//   * Fig. 2: s (length 8) and p (length 4), where stretching p's time
//     axis by 2 yields s exactly.
//
// Simulated stand-ins (deterministic seeds):
//   * TrendingPair   — Ex. 2.1 (BBA/ZTR): each normalization/smoothing step
//     shrinks the distance substantially;
//   * OppositePair   — Ex. 2.2 (CC/VAR): reverse + smoothing makes them
//     close;
//   * DissimilarPair — Ex. 2.3 (DMIC/MXF): smoothing barely helps.

#ifndef TSQ_WORKLOAD_PAPER_DATA_H_
#define TSQ_WORKLOAD_PAPER_DATA_H_

#include <utility>

#include "series/time_series.h"

namespace tsq {
namespace workload {
namespace paper {

/// Fig. 1(a): ~s1 (length 15).
TimeSeries Fig1SeriesS1();

/// Fig. 1(b): ~s2 (length 15).
TimeSeries Fig1SeriesS2();

/// Example 1.2: ~s = (20,20,21,21,20,20,23,23) (length 8).
///
/// The example text prints (20,21,21,21,20,21,23,23) while the figure
/// caption prints (20,20,21,21,20,20,23,23); only the caption version is
/// consistent with the claim that scaling ~p's time dimension by 2 yields
/// ~s, so tsq ships the caption (warp-consistent) sequence.
TimeSeries Fig2SeriesS();

/// Example 1.2: ~p = (20,21,20,23) (length 4).
TimeSeries Fig2SeriesP();

/// Ex. 2.1 stand-in: two stocks with the same underlying trend at
/// different price levels and volatilities (128 days).
std::pair<TimeSeries, TimeSeries> TrendingPair();

/// Ex. 2.2 stand-in: two stocks with mirrored price movements (128 days).
std::pair<TimeSeries, TimeSeries> OppositePair();

/// Ex. 2.3 stand-in: two stocks with genuinely different trends (128 days).
std::pair<TimeSeries, TimeSeries> DissimilarPair();

}  // namespace paper
}  // namespace workload
}  // namespace tsq

#endif  // TSQ_WORKLOAD_PAPER_DATA_H_
