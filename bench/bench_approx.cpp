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
// Each timing is one sweep over every query, in ms per query. The sweeps
// interleave: each of bench::kCellReps repetitions (after one warm-up)
// runs the exact search and then every config, so each config's median
// and min-max, and its speedup — the median of the per-repetition ratios
// to that repetition's exact sweep — compare runs made moments apart.
// Drops BENCH_approx.json in the working directory — per-configuration
// median ms with every run, speedup with every ratio, recall@k, observed
// and true max relative error, candidates verified and pruned — so CI
// archives the recall-vs-speedup trade-off across PRs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
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

// What one config's answers are worth against the exact ones, over every
// query.
struct Quality {
  double recall = 0.0;
  double observed_max_error = 0.0;
  double true_max_error = 0.0;
  uint64_t visited = 0;
  uint64_t pruned = 0;
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

  const auto knn = [&](int q, const KnnOptions& options) {
    return engine::BatchQuery::Knn(market[(q * 97) % market.size()].values(),
                                   k, QuerySpec{}, options);
  };
  // One sweep over every query under `options`, in ms per query.
  const auto sweep_ms = [&](const KnnOptions& options) {
    Stopwatch watch;
    for (int q = 0; q < kQueries; ++q) {
      bench::RunQuery(db.get(), knn(q, options));
    }
    return watch.ElapsedMillis() / kQueries;
  };

  // Exact answers, for recall and the true error.
  std::vector<std::vector<Match>> exact(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    exact[q] = bench::RunQuery(db.get(), knn(q, KnnOptions{})).matches;
  }

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
  constexpr size_t kConfigs = std::size(configs);

  std::vector<Quality> quality(kConfigs);
  for (size_t c = 0; c < kConfigs; ++c) {
    const Config& config = configs[c];
    Quality& got = quality[c];
    const bool pure_epsilon = config.options.probe_budget == 0;
    for (int q = 0; q < kQueries; ++q) {
      const engine::BatchResult result =
          bench::RunQuery(db.get(), knn(q, config.options));
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
      got.recall += static_cast<double>(hits) /
                    static_cast<double>(exact[q].size());
      if (!approx.empty() && !exact[q].empty()) {
        const double d_true = exact[q].back().distance;
        const double d_got = approx.back().distance;
        if (d_true > 0.0) {
          got.true_max_error =
              std::max(got.true_max_error, d_got / d_true - 1.0);
        }
        TSQ_CHECK_MSG(!pure_epsilon ||
                          d_got <= d_true * (1.0 + config.options.epsilon) +
                                       1e-9,
                      "true k-th distance violates the epsilon bound");
      }
      got.observed_max_error =
          std::max(got.observed_max_error, stats.max_error);
      got.visited += stats.candidates;
      got.pruned += stats.pruned;
    }
    got.recall /= kQueries;
  }

  // Timing. Each repetition sweeps the exact search and then every
  // config, so a shift in the host's speed over seconds reaches all of
  // them alike, and a speedup is the median of its per-repetition
  // ratios. The first repetition warms up and is not kept.
  std::vector<double> exact_runs;
  std::vector<std::vector<double>> config_runs(kConfigs);
  std::vector<std::vector<double>> speedup_runs(kConfigs);
  for (int rep = -1; rep < bench::kCellReps; ++rep) {
    const double exact_ms = sweep_ms(KnnOptions{});
    if (rep >= 0) exact_runs.push_back(exact_ms);
    for (size_t c = 0; c < kConfigs; ++c) {
      const double ms = sweep_ms(configs[c].options);
      if (rep < 0) continue;
      config_runs[c].push_back(ms);
      speedup_runs[c].push_back(exact_ms / ms);
    }
  }
  const bench::CellTiming exact_timing = bench::Summarize(exact_runs);

  bench::Table table({"config", "median ms", "min-max", "speedup",
                      "recall@k", "observed max_err", "true max_err",
                      "visited", "pruned"});
  table.AddRow({"exact", bench::Table::Num(exact_timing.median_ms),
                exact_timing.Spread(3), "1.00x", "1.000", "-", "-", "-",
                "-"});
  bench::Json rows = bench::Json::Array();
  for (size_t c = 0; c < kConfigs; ++c) {
    const Config& config = configs[c];
    const Quality& got = quality[c];
    const bench::CellTiming timing = bench::Summarize(config_runs[c]);
    const double speedup = bench::Median(speedup_runs[c]);
    table.AddRow({config.label, bench::Table::Num(timing.median_ms),
                  timing.Spread(3),
                  bench::Table::Num(speedup, 2) + "x",
                  bench::Table::Num(got.recall, 3),
                  bench::Table::Num(got.observed_max_error, 4),
                  bench::Table::Num(got.true_max_error, 4),
                  std::to_string(got.visited / kQueries),
                  std::to_string(got.pruned / kQueries)});
    bench::Json row = bench::Json::Object();
    row["config"] = bench::Json::Str(config.label);
    row["epsilon"] = bench::Json::Num(config.options.epsilon);
    row["probe_budget"] = bench::Json::Int(config.options.probe_budget);
    timing.AddTo(&row);
    row["speedup_vs_exact"] = bench::Json::Num(speedup);
    bench::Json speedups = bench::Json::Array();
    for (const double r : speedup_runs[c]) {
      speedups.Append(bench::Json::Num(r));
    }
    row["speedup_runs"] = std::move(speedups);
    row["recall_at_k"] = bench::Json::Num(got.recall);
    row["observed_max_error"] = bench::Json::Num(got.observed_max_error);
    row["true_max_error"] = bench::Json::Num(got.true_max_error);
    row["mean_visited"] = bench::Json::Int(got.visited / kQueries);
    row["mean_pruned"] = bench::Json::Int(got.pruned / kQueries);
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
