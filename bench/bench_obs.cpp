// Copyright (c) 2026 The tsq Authors.
//
// Observability overhead: the same query workload with instrumentation
// (a) fully disarmed, (b) metrics armed but tracing off, (c) metrics and
// per-query stage tracing armed. The contract under test is the obs
// subsystem's price list — disarmed instrumentation is one relaxed
// atomic load per site, so mode (a) must sit within noise of the
// pre-obs binary, and answers must be bit-identical in every mode (the
// timers only ever read clocks).
//
// Drops BENCH_obs.json in the working directory — per-mode mean ms for
// range and kNN sweeps plus the relative overhead against the disarmed
// mode — so CI archives the overhead trajectory across PRs.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

struct Mode {
  const char* label;
  bool metrics;
  bool tracing;
};

void Apply(const Mode& mode) {
  if (mode.metrics) {
    obs::ArmMetrics();
  } else {
    obs::DisarmMetrics();
  }
  if (mode.tracing) {
    obs::ArmTracing();
  } else {
    obs::DisarmTracing();
  }
}

void Run() {
  bench::Banner(
      "Observability overhead: disarmed / metrics / full tracing",
      "Identical range + kNN sweeps per mode. Disarmed instrumentation\n"
      "must be free (one relaxed load per site) and answers must be\n"
      "bit-identical whether or not the stage timers run.");

  bench::ScratchDir dir("obs");
  auto market = workload::MakeStockMarket(271828);
  market.resize(bench::Scaled(market.size(), 128));
  auto db = bench::BuildDatabase(dir.path(), "obs", market);

  const int kQueries = static_cast<int>(bench::Scaled(40, 4));
  const int kReps = 5;
  const double epsilon = 2.0;
  const size_t k = 10;

  const Mode modes[] = {
      {"disarmed", false, false},
      {"metrics_only", true, false},
      {"metrics_and_tracing", true, true},
  };

  // Reference answers from the disarmed mode; every other mode must
  // reproduce them exactly (same ids, same distances, same order).
  std::vector<std::vector<Match>> range_ref;
  std::vector<std::vector<Match>> knn_ref;

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("obs_overhead");
  bench::Json workload_json = bench::Json::Object();
  workload_json["series"] = bench::Json::Int(market.size());
  workload_json["length"] = bench::Json::Int(market[0].values().size());
  workload_json["queries"] = bench::Json::Int(kQueries);
  workload_json["reps"] = bench::Json::Int(kReps);
  workload_json["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["workload"] = std::move(workload_json);
  bench::Json rows = bench::Json::Array();

  bench::Table table({"mode", "range ms", "knn ms", "overhead %"});
  double baseline_ms = 0.0;

  for (const Mode& mode : modes) {
    Apply(mode);
    std::vector<std::vector<Match>> range_answers(kQueries);
    std::vector<std::vector<Match>> knn_answers(kQueries);
    const double range_ms = bench::MeanMillis(
        [&] {
          for (int q = 0; q < kQueries; ++q) {
            range_answers[q] =
                bench::RunQuery(db.get(),
                                engine::BatchQuery::Range(
                                    market[q % market.size()].values(),
                                    epsilon))
                    .matches;
          }
        },
        kReps);
    const double knn_ms = bench::MeanMillis(
        [&] {
          for (int q = 0; q < kQueries; ++q) {
            knn_answers[q] =
                bench::RunQuery(db.get(),
                                engine::BatchQuery::Knn(
                                    market[q % market.size()].values(), k))
                    .matches;
          }
        },
        kReps);

    if (range_ref.empty()) {
      range_ref = std::move(range_answers);
      knn_ref = std::move(knn_answers);
      baseline_ms = range_ms + knn_ms;
    } else {
      // Bit-identical answers in every mode: ids, distances and order.
      for (int q = 0; q < kQueries; ++q) {
        const auto check = [&](const std::vector<Match>& got,
                               const std::vector<Match>& want) {
          if (got.size() != want.size()) std::abort();
          for (size_t i = 0; i < got.size(); ++i) {
            if (got[i].id != want[i].id ||
                got[i].distance != want[i].distance) {
              std::fprintf(stderr,
                           "FATAL: answers changed under mode %s\n",
                           mode.label);
              std::abort();
            }
          }
        };
        check(range_answers[q], range_ref[q]);
        check(knn_answers[q], knn_ref[q]);
      }
    }

    const double total_ms = range_ms + knn_ms;
    const double overhead =
        baseline_ms > 0.0 ? (total_ms / baseline_ms - 1.0) * 100.0 : 0.0;
    table.AddRow({mode.label, bench::Table::Num(range_ms),
                  bench::Table::Num(knn_ms),
                  bench::Table::Num(overhead, 1)});
    bench::Json row = bench::Json::Object();
    row["mode"] = bench::Json::Str(mode.label);
    row["range_ms"] = bench::Json::Num(range_ms);
    row["knn_ms"] = bench::Json::Num(knn_ms);
    row["overhead_pct"] = bench::Json::Num(overhead);
    rows.Append(std::move(row));
  }
  // Leave the process as the next bench expects it: disarmed.
  obs::DisarmMetrics();
  obs::DisarmTracing();

  table.Print();
  doc["rows"] = std::move(rows);
  if (!doc.WriteFile("BENCH_obs.json")) {
    std::fprintf(stderr, "WARNING: could not write BENCH_obs.json\n");
  } else {
    std::printf("\nwrote BENCH_obs.json\n");
  }
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
