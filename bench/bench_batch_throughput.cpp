// Copyright (c) 2026 The tsq Authors.
//
// Batch query engine throughput: queries/second for a mixed range + kNN
// workload run by Database::RunBatch with 1, 2, 4 and 8 drivers on the
// database's pool, the parallel self-join, and a buffer-pool shard-count
// sweep.
// This is not a paper figure — it measures the concurrency layer tsq adds
// on top of the paper's single-query pipeline (the index stack is shared
// read-only across drivers; answers are identical at every thread count
// and shard count).
//
// Besides the console tables, the binary drops BENCH_batch_throughput.json
// in the working directory — wall ms, queries/sec and the buffer-pool
// hit/miss/disk counters for every thread and shard configuration — so CI
// can archive the perf trajectory across PRs instead of it living only in
// README prose.

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

bench::Json PoolCountersJson(const BufferPoolStats& stats) {
  bench::Json j = bench::Json::Object();
  j["hits"] = bench::Json::Int(stats.hits.load());
  j["misses"] = bench::Json::Int(stats.misses.load());
  j["evictions"] = bench::Json::Int(stats.evictions.load());
  j["disk_reads"] = bench::Json::Int(stats.disk_reads.load());
  j["disk_writes"] = bench::Json::Int(stats.disk_writes.load());
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

  bench::Table table({"threads", "wall ms", "queries/sec", "speedup",
                      "answers", "candidates"});
  bench::Json thread_sweep = bench::Json::Array();
  double base_ms = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    db->RunBatch(batch, threads).value();  // warm the buffer pool
    db->index()->pool()->ResetStats();

    engine::BatchStats stats;
    const auto results = db->RunBatch(batch, threads, &stats).value();
    uint64_t failures = 0;
    for (const auto& r : results) {
      if (!r.status.ok()) ++failures;
    }
    TSQ_CHECK_MSG(failures == 0, "%llu batch queries failed",
                  static_cast<unsigned long long>(failures));

    if (threads == 1) base_ms = stats.wall_ms;
    table.AddRow({std::to_string(threads), bench::Table::Num(stats.wall_ms),
                  bench::Table::Num(1000.0 * kBatch / stats.wall_ms, 0),
                  bench::Table::Num(base_ms / stats.wall_ms, 2),
                  std::to_string(stats.aggregate.answers),
                  std::to_string(stats.aggregate.candidates)});
    bench::Json row = bench::Json::Object();
    row["threads"] = bench::Json::Int(threads);
    row["wall_ms"] = bench::Json::Num(stats.wall_ms);
    row["queries_per_sec"] = bench::Json::Num(1000.0 * kBatch /
                                              stats.wall_ms);
    row["answers"] = bench::Json::Int(stats.aggregate.answers);
    row["candidates"] = bench::Json::Int(stats.aggregate.candidates);
    row["pool"] = PoolCountersJson(db->index()->pool()->stats());
    thread_sweep.Append(std::move(row));
  }
  table.Print();
  doc["thread_sweep"] = std::move(thread_sweep);

  std::printf("\n");
  bench::Banner(
      "Buffer-pool shard sweep: 8-thread batch wall time vs shard count",
      "Same workload at thread cap 8 against databases whose pool has 1, 4 "
      "and 16\nshards (and a small frame budget, so page access leaves "
      "the lock-free\nhit path often enough to exercise the miss/eviction "
      "locks). 1 shard\nreproduces the single-mutex miss path.");

  bench::Table shard_table(
      {"shards", "wall ms", "queries/sec", "speedup vs 1"});
  bench::Json shard_sweep = bench::Json::Array();
  double one_shard_ms = 0.0;
  for (const size_t shards : {1u, 4u, 16u}) {
    DatabaseOptions shard_options;
    shard_options.buffer_pool_shards = shards;
    // A pool far smaller than the node count keeps eviction/refetch
    // traffic flowing through the miss path instead of pure hits.
    shard_options.buffer_pool_frames = 64;
    auto shard_db =
        bench::BuildDatabase(dir.path(), "batch_s" + std::to_string(shards),
                             data, shard_options);
    shard_db->RunBatch(batch, 8).value();  // warm-up
    shard_db->index()->pool()->ResetStats();

    engine::BatchStats stats;
    const auto results = shard_db->RunBatch(batch, 8, &stats).value();
    for (const auto& r : results) {
      TSQ_CHECK_MSG(r.status.ok(), "shard-sweep query failed: %s",
                    r.status.ToString().c_str());
    }
    if (shards == 1) one_shard_ms = stats.wall_ms;
    shard_table.AddRow({std::to_string(shards),
                        bench::Table::Num(stats.wall_ms),
                        bench::Table::Num(1000.0 * kBatch / stats.wall_ms, 0),
                        bench::Table::Num(one_shard_ms / stats.wall_ms, 2)});
    bench::Json row = bench::Json::Object();
    row["shards"] = bench::Json::Int(shards);
    row["pool_frames"] = bench::Json::Int(64);
    row["threads"] = bench::Json::Int(8);
    row["wall_ms"] = bench::Json::Num(stats.wall_ms);
    row["queries_per_sec"] = bench::Json::Num(1000.0 * kBatch /
                                              stats.wall_ms);
    row["pool"] = PoolCountersJson(shard_db->index()->pool()->stats());
    shard_sweep.Append(std::move(row));
  }
  shard_table.Print();
  doc["shard_sweep"] = std::move(shard_sweep);

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
      {"threads", "wall ms", "speedup", "pairs", "candidates"});
  bench::Json join_sweep = bench::Json::Array();
  double join_base_ms = 0.0;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    QueryStats stats;
    join_db->SelfJoin(join_eps, JoinMethod::kTreeMatch, std::nullopt,
                      nullptr, threads)
        .value();  // warm-up
    const auto pairs = join_db
                           ->SelfJoin(join_eps, JoinMethod::kTreeMatch,
                                      std::nullopt, &stats, threads)
                           .value();
    if (threads == 1) join_base_ms = stats.elapsed_ms;
    join_table.AddRow({std::to_string(threads),
                       bench::Table::Num(stats.elapsed_ms),
                       bench::Table::Num(join_base_ms / stats.elapsed_ms, 2),
                       std::to_string(pairs.size()),
                       std::to_string(stats.candidates)});
    bench::Json row = bench::Json::Object();
    row["threads"] = bench::Json::Int(threads);
    row["wall_ms"] = bench::Json::Num(stats.elapsed_ms);
    row["pairs"] = bench::Json::Int(pairs.size());
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
