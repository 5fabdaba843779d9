// Copyright (c) 2026 The tsq Authors.
//
// Reproduces the shapes of the paper's Figures 3-5 (Examples 2.1-2.3): the
// transformation pipelines on stock pairs. The original stock data
// (ftp.ai.mit.edu) is unavailable; fixed-seed simulated stand-ins with the
// same qualitative relationships are used instead (see
// src/workload/paper_data.h). The check is the *shape*: each pipeline step
// shrinks the distance for related pairs; smoothing cannot reconcile
// dissimilar trends.

#include <cstdio>

#include "bench_util.h"
#include "series/distance.h"
#include "series/moving_average.h"
#include "series/normal_form.h"
#include "workload/paper_data.h"

namespace tsq {
namespace {

struct PipelineResult {
  double original;
  double shifted;
  double normalized;
  double smoothed;        // 20-day MA of normal forms
  double reversed = 0.0;  // only meaningful for the opposite pair
};

PipelineResult RunPipeline(const TimeSeries& a, const TimeSeries& b,
                           bool reverse_b) {
  PipelineResult r{};
  r.original = EuclideanDistance(a, b);

  RealVec sa = a.values();
  RealVec sb = b.values();
  const double ma = a.Mean();
  const double mb = b.Mean();
  for (double& v : sa) v -= ma;
  for (double& v : sb) v -= mb;
  r.shifted = EuclideanDistance(sa, sb);

  RealVec na = ToNormalForm(a.values()).normalized;
  RealVec nb = ToNormalForm(b.values()).normalized;
  r.normalized = EuclideanDistance(na, nb);

  if (reverse_b) {
    for (double& v : nb) v = -v;
    r.reversed = EuclideanDistance(na, nb);
  }
  r.smoothed = EuclideanDistance(CircularMovingAverage(na, 20),
                                 CircularMovingAverage(nb, 20));
  return r;
}

void RunFigure3() {
  bench::Banner(
      "Figure 3 / Example 2.1 (simulated stand-in for BBA/ZTR)",
      "Shift -> scale (normal form) -> 20-day MA shrinks the distance.\n"
      "Paper: 16.16 -> 12.78 -> 11.10 -> 2.75 (each step helps; MA is the "
      "big drop)");
  auto [a, b] = workload::paper::TrendingPair();
  PipelineResult r = RunPipeline(a, b, /*reverse_b=*/false);
  bench::Table table({"step", "paper(BBA/ZTR)", "measured(sim)"});
  table.AddRow({"original", "16.16", bench::Table::Num(r.original, 2)});
  table.AddRow({"shifted (mean 0)", "12.78", bench::Table::Num(r.shifted, 2)});
  table.AddRow({"scaled (normal form)", "11.10",
                bench::Table::Num(r.normalized, 2)});
  table.AddRow({"20-day MV", "2.75", bench::Table::Num(r.smoothed, 2)});
  table.Print();
  std::printf("\n  shape check: monotone decrease %s, MA drop >2x %s\n",
              (r.shifted <= r.original && r.normalized <= r.shifted &&
               r.smoothed < r.normalized)
                  ? "OK"
                  : "VIOLATED",
              (r.smoothed < r.normalized / 2.0) ? "OK" : "VIOLATED");
}

void RunFigure4() {
  bench::Banner(
      "Figure 4 / Example 2.2 (simulated stand-in for CC/VAR)",
      "Opposite movers: normal form -> reverse -> 20-day MA.\n"
      "Paper: 119.59 -> 21.81 -> 5.68 -> 3.81");
  auto [a, b] = workload::paper::OppositePair();
  PipelineResult r = RunPipeline(a, b, /*reverse_b=*/true);
  bench::Table table({"step", "paper(CC/VAR)", "measured(sim)"});
  table.AddRow({"original", "119.59", bench::Table::Num(r.original, 2)});
  table.AddRow({"normal form", "21.81", bench::Table::Num(r.normalized, 2)});
  table.AddRow({"reversed", "5.68", bench::Table::Num(r.reversed, 2)});
  table.AddRow({"20-day MV (reversed)", "3.81",
                bench::Table::Num(r.smoothed, 2)});
  table.Print();
  std::printf("\n  shape check: reverse is the key step %s\n",
              (r.reversed < r.normalized / 2.0 && r.smoothed <= r.reversed)
                  ? "OK"
                  : "VIOLATED");
}

void RunFigure5() {
  bench::Banner(
      "Figure 5 / Example 2.3 (simulated stand-in for DMIC/MXF)",
      "Dissimilar trends stay apart under repeated smoothing.\n"
      "Paper: 11.06 -> 10.09 -> 9.63 -> 9.22 -> ... -> 6.57 (10th MA)");
  auto [a, b] = workload::paper::DissimilarPair();
  RealVec na = ToNormalForm(a.values()).normalized;
  RealVec nb = ToNormalForm(b.values()).normalized;
  bench::Table table({"MA applications", "paper(DMIC/MXF)", "measured(sim)"});
  const char* paper_vals[] = {"11.06", "10.09", "9.63", "9.22", "-",
                              "-",     "-",     "-",    "-",    "-", "6.57"};
  double first = EuclideanDistance(na, nb);
  double last = first;
  for (int round = 0; round <= 10; ++round) {
    if (round > 0) {
      na = CircularMovingAverage(na, 20);
      nb = CircularMovingAverage(nb, 20);
    }
    last = EuclideanDistance(na, nb);
    table.AddRow({std::to_string(round), paper_vals[round],
                  bench::Table::Num(last, 2)});
  }
  table.Print();
  std::printf("\n  shape check: still far after 10 MAs (>%.0f%% remains) %s\n",
              100.0 / 2.5,
              (last > first / 2.5) ? "OK" : "VIOLATED");
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::RunFigure3();
  tsq::RunFigure4();
  tsq::RunFigure5();
  return 0;
}
