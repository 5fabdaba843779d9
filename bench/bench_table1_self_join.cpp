// Copyright (c) 2026 The tsq Authors.
//
// Reproduces Table 1: the 20-day-moving-average spatial self-join on the
// (simulated) stock relation of 1067 series x 128 days, with the paper's
// four execution methods:
//   a  scan-scan, full distance per pair (no shortcuts)
//   b  scan-scan with early abandoning at epsilon
//   c  index join WITHOUT the transformation
//   d  index join THROUGH the transformed index (Tmavg20)
// Expected shape: a >> b >> {c, d}; d slightly slower than c; the answer
// set of d is exactly twice b's (ordered pairs); c answers a different
// (unsmoothed) question and finds fewer pairs.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/seq_scan.h"
#include "transform/builtin.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

std::string FormatDuration(double ms) {
  const int minutes = static_cast<int>(ms / 60000.0);
  const double seconds = (ms - minutes * 60000.0) / 1000.0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%d:%06.3f", minutes, seconds);
  return buf;
}

void Run() {
  bench::Banner(
      "Table 1: the result of the 20-day-MA self-join",
      "Simulated stock relation, 1067 x 128; Tmavg20; epsilon tuned for a "
      "paper-sized answer set.\nPaper: a=20:36 (12), b=2:31 (12), "
      "c=0:10 (3x2=6), d=0:17 (12x2=24).");

  bench::ScratchDir dir("table1");
  auto market = workload::MakeStockMarket(19970525);  // SIGMOD'97 :-)
  market.resize(bench::Scaled(market.size(), 128));
  auto db = bench::BuildDatabase(dir.path(), "table1", market);

  // Calibrated so the smoothed join finds the planted similar pairs plus
  // at most a few random ones — a paper-sized answer set.
  const double kEps = 0.5;
  const auto transform =
      FeatureTransform::Spectral(transforms::MovingAverage(128, 20));

  struct MethodRow {
    const char* label;
    JoinMethod method;
    const char* paper_time;
    const char* paper_answers;
  };
  const MethodRow methods[] = {
      {"a (scan, full distance)", JoinMethod::kScanFull, "20:36.323", "12"},
      {"b (scan, early abandon)", JoinMethod::kScanEarlyAbandon, "2:31.217",
       "12"},
      {"c (index, no transform)", JoinMethod::kIndexPlain, "0:10.139",
       "3x2=6"},
      {"d (index, Tmavg20)", JoinMethod::kIndexTransformed, "0:17.698",
       "12x2=24"},
  };

  bench::Table table({"method", "paper time", "paper answers",
                      "measured time", "measured answers"});
  double times_ms[4] = {0, 0, 0, 0};
  size_t answers[4] = {0, 0, 0, 0};
  int i = 0;
  for (const MethodRow& m : methods) {
    Stopwatch watch;
    auto pairs = db->SelfJoin(kEps, m.method, transform);
    TSQ_CHECK_MSG(pairs.ok(), "join failed: %s",
                  pairs.status().ToString().c_str());
    times_ms[i] = watch.ElapsedMillis();
    answers[i] = pairs->size();
    table.AddRow({m.label, m.paper_time, m.paper_answers,
                  FormatDuration(times_ms[i]), std::to_string(answers[i])});
    ++i;
  }
  table.Print();

  std::printf("\n  shape checks:\n");
  std::printf("    a slowest: %s;  a/b speedup: %.1fx (paper: ~10x)\n",
              (times_ms[0] >= times_ms[1] && times_ms[0] >= times_ms[2] &&
               times_ms[0] >= times_ms[3])
                  ? "OK"
                  : "VIOLATED",
              times_ms[0] / times_ms[1]);
  std::printf("    b/d speedup: %.1fx (paper: ~9x)   %s\n",
              times_ms[1] / times_ms[3],
              times_ms[1] > times_ms[3] ? "OK" : "VIOLATED");
  std::printf("    d vs c: d %s slower (paper: slightly slower)\n",
              times_ms[3] >= times_ms[2] ? "is" : "is NOT");
  std::printf("    |a| == |b|: %s;  |d| == 2|b|: %s;  |c| <= |d|: %s\n",
              answers[0] == answers[1] ? "OK" : "VIOLATED",
              answers[3] == 2 * answers[1] ? "OK" : "VIOLATED",
              answers[2] <= answers[3] ? "OK" : "VIOLATED");

  // Extra (beyond the paper): the tree-match join — one synchronized
  // traversal of the transformed tree against itself instead of one range
  // query per record, split by root-child pairs across the database's
  // thread pool.
  {
    Stopwatch watch;
    QueryStats stats;
    auto pairs =
        db->SelfJoin(kEps, JoinMethod::kTreeMatch, transform, &stats);
    TSQ_CHECK_MSG(pairs.ok(), "tree-match join failed: %s",
                  pairs.status().ToString().c_str());
    std::printf(
        "\n  extension (not in the paper): tree-match join: %s, %zu answers "
        "(%llu node accesses)\n",
        FormatDuration(watch.ElapsedMillis()).c_str(), pairs->size(),
        static_cast<unsigned long long>(stats.nodes_visited));
  }

  // Extra (beyond the paper): the strongest possible modern scan — spectra
  // cached in memory after one relation pass, fused transform+distance
  // with early abandoning. This is how cheap the scan gets when the
  // relation fits in RAM on 2026 hardware, which compresses the paper's
  // scan-vs-index gap at 1067 series (the disk-resident regime above is
  // the paper's).
  std::vector<ComplexVec> spectra;
  spectra.reserve(market.size());
  db->relation()
      ->Scan([&spectra](const SeriesRecord& rec) {
        spectra.push_back(rec.dft);
        return true;
      })
      .ok();
  const LinearTransform fused = transforms::MovingAverage(128, 20);
  Stopwatch watch;
  size_t hits = 0;
  for (size_t x = 0; x < spectra.size(); ++x) {
    for (size_t y = x + 1; y < spectra.size(); ++y) {
      if (EarlyAbandonPairDistance(spectra[x], spectra[y], &fused, kEps)
              .has_value()) {
        ++hits;
      }
    }
  }
  std::printf(
      "\n  reference (not in the paper): in-memory fused scan join: %s, "
      "%zu answers\n",
      FormatDuration(watch.ElapsedMillis()).c_str(), hits);
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
