// Copyright (c) 2026 The tsq Authors.
//
// Approximate kNN: recall and speedup versus the exact multi-step search
// as the (1+epsilon) relaxation and the probe budget are dialed (a budget
// of k is the ng-approximate first-leaf stop). Not a paper figure — the
// paper's kNN is exact;
// this measures the accuracy/latency dial tsq adds on top (KnnOptions),
// and asserts the correctness contract on the bench workload itself:
// the observed max_error reported in QueryStats never exceeds the
// requested epsilon, and epsilon = 0 answers are identical to exact.
//
// Each timing is one sweep over every query, in ms per query: the median
// of bench::RepeatCell's five runs, with their min-max beside it. Drops
// BENCH_approx.json in the working directory — per-configuration median
// ms with every run, speedup, recall@k, observed and true max relative
// error, candidates verified and pruned — so CI archives the
// recall-vs-speedup trade-off across PRs.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "workload/stock_sim.h"

namespace tsq {
namespace {

struct Config {
  const char* label;
  KnnOptions options;
};

void Run() {
  bench::Banner(
      "Approximate kNN: recall vs speedup (KnnOptions dial)",
      "Simulated stock relation; exact multi-step kNN baseline against\n"
      "(1+eps)-relaxed pruning and probe budgets (probes=k is the\n"
      "first-leaf stop).\n"
      "Contract checked per query: reported max_error <= requested eps.");

  bench::ScratchDir dir("approx");
  auto market = workload::MakeStockMarket(481516);
  market.resize(bench::Scaled(market.size(), 128));
  auto db = bench::BuildDatabase(dir.path(), "approx", market);
  const size_t k = 10;
  const int kQueries = static_cast<int>(bench::Scaled(20, 4));

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("approx_knn");
  bench::Json workload_json = bench::Json::Object();
  workload_json["series"] = bench::Json::Int(market.size());
  workload_json["length"] = bench::Json::Int(market[0].values().size());
  workload_json["k"] = bench::Json::Int(k);
  workload_json["queries"] = bench::Json::Int(kQueries);
  workload_json["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["workload"] = std::move(workload_json);

  // The sweep under `options`, timed: ms per query, median of five runs.
  const auto time_sweep = [&](const KnnOptions& options) {
    return bench::RepeatCell([&] {
      Stopwatch watch;
      for (int q = 0; q < kQueries; ++q) {
        bench::RunQuery(db.get(),
                        engine::BatchQuery::Knn(
                            market[(q * 97) % market.size()].values(), k,
                            QuerySpec{}, options));
      }
      return watch.ElapsedMillis() / kQueries;
    });
  };

  // Exact baselines: answers for recall/true-error, ms for speedup.
  std::vector<std::vector<Match>> exact(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    exact[q] = bench::RunQuery(db.get(),
                               engine::BatchQuery::Knn(
                                   market[(q * 97) % market.size()].values(),
                                   k))
                   .matches;
  }
  const bench::CellTiming exact_timing = time_sweep(KnnOptions{});
  const double exact_ms = exact_timing.median_ms;

  const Config configs[] = {
      {"eps=0", {0.0, 0}},
      {"eps=0.05", {0.05, 0}},
      {"eps=0.1", {0.1, 0}},
      {"eps=0.25", {0.25, 0}},
      {"eps=0.5", {0.5, 0}},
      {"eps=1.0", {1.0, 0}},
      {"probes=64", {0.0, 64}},
      {"probes=16", {0.0, 16}},
      {"probes=10", {0.0, k}},
  };

  bench::Table table({"config", "median ms", "min-max", "speedup",
                      "recall@k", "observed max_err", "true max_err",
                      "visited", "pruned"});
  table.AddRow({"exact", bench::Table::Num(exact_ms),
                exact_timing.Spread(3), "1.00x", "1.000", "-", "-", "-",
                "-"});
  bench::Json rows = bench::Json::Array();

  for (const Config& config : configs) {
    double recall = 0.0;
    double observed_max_error = 0.0;
    double true_max_error = 0.0;
    uint64_t visited = 0;
    uint64_t pruned = 0;
    const bool pure_epsilon = config.options.probe_budget == 0;
    for (int q = 0; q < kQueries; ++q) {
      const auto knn = engine::BatchQuery::Knn(
          market[(q * 97) % market.size()].values(), k, QuerySpec{},
          config.options);
      const engine::BatchResult result = bench::RunQuery(db.get(), knn);
      const std::vector<Match>& approx = result.matches;
      const QueryStats& stats = result.stats;

      // Correctness contract, checked on the bench workload: the
      // reported error bound honors the requested epsilon, and with
      // epsilon = 0 (and no other knob) the answer IS the exact answer.
      TSQ_CHECK_MSG(
          !pure_epsilon ||
              stats.max_error <= config.options.epsilon + 1e-12,
          "observed max_error exceeds the requested epsilon");
      if (config.options.is_default()) {
        TSQ_CHECK_MSG(approx.size() == exact[q].size(),
                      "eps=0 answer size differs from exact");
      }

      size_t hits = 0;
      for (const Match& m : approx) {
        for (const Match& e : exact[q]) {
          if (e.id == m.id) {
            ++hits;
            break;
          }
        }
      }
      recall += static_cast<double>(hits) /
                static_cast<double>(exact[q].size());
      if (!approx.empty() && !exact[q].empty()) {
        const double d_true = exact[q].back().distance;
        const double d_got = approx.back().distance;
        if (d_true > 0.0) {
          const double err = d_got / d_true - 1.0;
          true_max_error = err > true_max_error ? err : true_max_error;
        }
        TSQ_CHECK_MSG(!pure_epsilon ||
                          d_got <= d_true * (1.0 + config.options.epsilon) +
                                       1e-9,
                      "true k-th distance violates the epsilon bound");
      }
      observed_max_error = stats.max_error > observed_max_error
                               ? stats.max_error
                               : observed_max_error;
      visited += stats.candidates;
      pruned += stats.pruned;
    }
    recall /= kQueries;
    const bench::CellTiming timing = time_sweep(config.options);

    table.AddRow({config.label, bench::Table::Num(timing.median_ms),
                  timing.Spread(3),
                  bench::Table::Num(exact_ms / timing.median_ms, 2) + "x",
                  bench::Table::Num(recall, 3),
                  bench::Table::Num(observed_max_error, 4),
                  bench::Table::Num(true_max_error, 4),
                  std::to_string(visited / kQueries),
                  std::to_string(pruned / kQueries)});
    bench::Json row = bench::Json::Object();
    row["config"] = bench::Json::Str(config.label);
    row["epsilon"] = bench::Json::Num(config.options.epsilon);
    row["probe_budget"] = bench::Json::Int(config.options.probe_budget);
    timing.AddTo(&row);
    row["speedup_vs_exact"] = bench::Json::Num(exact_ms / timing.median_ms);
    row["recall_at_k"] = bench::Json::Num(recall);
    row["observed_max_error"] = bench::Json::Num(observed_max_error);
    row["true_max_error"] = bench::Json::Num(true_max_error);
    row["mean_visited"] = bench::Json::Int(visited / kQueries);
    row["mean_pruned"] = bench::Json::Int(pruned / kQueries);
    rows.Append(std::move(row));
  }
  table.Print();
  bench::Json exact_json = bench::Json::Object();
  exact_timing.AddTo(&exact_json);
  doc["exact"] = std::move(exact_json);
  doc["sweep"] = std::move(rows);

  std::printf(
      "\n  shape: recall stays high well past eps=0.25 because the "
      "(1+eps) relaxation only prunes candidates whose lower bound was "
      "already close to the k-th distance; the probe budget buys the "
      "largest speedups and gives up recall first.\n");

  const char* out_path = "BENCH_approx.json";
  if (doc.WriteFile(out_path)) {
    std::printf("\n  wrote %s\n", out_path);
  } else {
    std::printf("\n  WARNING: could not write %s\n", out_path);
  }
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
