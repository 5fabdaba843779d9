// Copyright (c) 2026 The tsq Authors.
//
// Batch query engine throughput: queries/second for a mixed range + kNN
// workload run by Database::RunBatch with 1, 2, 4 and 8 drivers on the
// database's pool, and the parallel self-join.
// This is not a paper figure — it measures the concurrency layer tsq adds
// on top of the paper's single-query pipeline (the index stack is shared
// read-only across drivers; answers are identical at every thread count).
// Each cell runs once untimed, then bench::kCellReps timed times; tables
// show the median with its min-max.
//
// Besides the console tables, the binary drops BENCH_batch_throughput.json
// in the working directory — every repetition's wall ms, their median,
// queries/sec at the median and the buffer-pool hit/miss/disk counters of
// the last repetition for every thread cap — so CI can archive the perf
// trajectory across PRs instead of it living only in README prose.

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

/// The buffer-pool counters the database gained from `before` to `after`.
bench::Json PoolCountersJson(const DatabaseStats& after,
                             const DatabaseStats& before) {
  bench::Json j = bench::Json::Object();
  j["hits"] = bench::Json::Int(after.pool_hits - before.pool_hits);
  j["misses"] = bench::Json::Int(after.pool_misses - before.pool_misses);
  j["evictions"] =
      bench::Json::Int(after.pool_evictions - before.pool_evictions);
  j["disk_reads"] =
      bench::Json::Int(after.pool_disk_reads - before.pool_disk_reads);
  j["disk_writes"] =
      bench::Json::Int(after.pool_disk_writes - before.pool_disk_writes);
  return j;
}

void Run() {
  bench::Banner(
      "Batch engine: queries/sec vs thread cap",
      "Mixed range/kNN batch over random-walk data; shared read-only "
      "index.\nExpected shape: near-linear scaling until the core count "
      "or the\nbuffer-pool miss path saturates (v3 hits are lock-free).");
  std::printf("  hardware threads on this host: %u\n\n",
              std::thread::hardware_concurrency());

  const size_t kNumSeries = bench::Scaled(2000, 64);
  const size_t kLength = 256;
  const size_t kBatch = bench::Scaled(512, 32);

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("batch_throughput");
  bench::Json host = bench::Json::Object();
  host["hardware_threads"] =
      bench::Json::Int(std::thread::hardware_concurrency());
  host["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["host"] = std::move(host);
  bench::Json workload = bench::Json::Object();
  workload["series"] = bench::Json::Int(kNumSeries);
  workload["length"] = bench::Json::Int(kLength);
  workload["batch_queries"] = bench::Json::Int(kBatch);
  doc["workload"] = std::move(workload);

  bench::ScratchDir dir("batch_throughput");
  const auto data =
      workload::MakeRandomWalkDataset(4711, kNumSeries, kLength);
  auto db = bench::BuildDatabase(dir.path(), "batch", data);

  // The workload: stored series as queries (distance 0 to themselves, a
  // few neighbours in range), alternating range and kNN.
  const double eps = 0.25 * std::sqrt(static_cast<double>(kLength));
  std::vector<engine::BatchQuery> batch;
  batch.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    engine::BatchQuery q;
    q.query = data[(i * 37) % kNumSeries].values();
    if (i % 2 == 0) {
      q.kind = engine::BatchQueryKind::kRange;
      q.epsilon = eps;
    } else {
      q.kind = engine::BatchQueryKind::kKnn;
      q.k = 10;
    }
    batch.push_back(std::move(q));
  }

  bench::Table table({"threads", "wall ms", "min-max", "queries/sec",
                      "speedup", "answers", "candidates"});
  bench::Json thread_sweep = bench::Json::Array();
  double base_ms = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    // The untimed first run warms the buffer pool; every run checks its
    // answers, and the last one's counters go to the JSON.
    engine::BatchStats stats;
    DatabaseStats before, after;
    const bench::CellTiming timing = bench::RepeatCell([&] {
      before = db->StatsSnapshot();
      stats = engine::BatchStats();
      const auto results = db->RunBatch(batch, threads, &stats).value();
      after = db->StatsSnapshot();
      for (const auto& r : results) {
        TSQ_CHECK_MSG(r.status.ok(), "batch query failed: %s",
                      r.status.ToString().c_str());
      }
      return stats.wall_ms;
    });

    if (threads == 1) base_ms = timing.median_ms;
    table.AddRow({std::to_string(threads), bench::Table::Num(timing.median_ms),
                  timing.Spread(),
                  bench::Table::Num(1000.0 * kBatch / timing.median_ms, 0),
                  bench::Table::Num(base_ms / timing.median_ms, 2),
                  std::to_string(stats.aggregate.answers),
                  std::to_string(stats.aggregate.candidates)});
    bench::Json row = bench::Json::Object();
    row["threads"] = bench::Json::Int(threads);
    timing.AddTo(&row);
    row["queries_per_sec"] = bench::Json::Num(1000.0 * kBatch /
                                              timing.median_ms);
    row["answers"] = bench::Json::Int(stats.aggregate.answers);
    row["candidates"] = bench::Json::Int(stats.aggregate.candidates);
    row["pool"] = PoolCountersJson(after, before);
    thread_sweep.Append(std::move(row));
  }
  table.Print();
  doc["thread_sweep"] = std::move(thread_sweep);

  std::printf("\n");
  bench::Banner(
      "Parallel partitioned self-join: wall time vs thread cap",
      "Tree-match self-join; candidate leaf pairs split across drivers "
      "for\nfull-length verification.");

  // A join-sized subset keeps the candidate pair count tractable.
  const size_t kJoinSeries = bench::Scaled(600, 48);
  const auto join_data =
      workload::MakeRandomWalkDataset(4712, kJoinSeries, kLength);
  auto join_db = bench::BuildDatabase(dir.path(), "batch_join", join_data);
  const double join_eps = 0.8 * std::sqrt(static_cast<double>(kLength));

  bench::Table join_table(
      {"threads", "wall ms", "min-max", "speedup", "pairs", "candidates"});
  bench::Json join_sweep = bench::Json::Array();
  double join_base_ms = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    QueryStats stats;
    size_t pairs = 0;
    const bench::CellTiming timing = bench::RepeatCell([&] {
      stats = QueryStats();
      pairs = join_db
                  ->SelfJoin(join_eps, JoinMethod::kTreeMatch, std::nullopt,
                             &stats, threads)
                  .value()
                  .size();
      return stats.elapsed_ms;
    });
    if (threads == 1) join_base_ms = timing.median_ms;
    join_table.AddRow({std::to_string(threads),
                       bench::Table::Num(timing.median_ms), timing.Spread(),
                       bench::Table::Num(join_base_ms / timing.median_ms, 2),
                       std::to_string(pairs),
                       std::to_string(stats.candidates)});
    bench::Json row = bench::Json::Object();
    row["threads"] = bench::Json::Int(threads);
    timing.AddTo(&row);
    row["pairs"] = bench::Json::Int(pairs);
    row["candidates"] = bench::Json::Int(stats.candidates);
    join_sweep.Append(std::move(row));
  }
  join_table.Print();
  doc["join_sweep"] = std::move(join_sweep);

  const char* out_path = "BENCH_batch_throughput.json";
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
