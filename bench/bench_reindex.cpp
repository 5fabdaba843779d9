// Copyright (c) 2026 The tsq Authors.
//
// Ingest throughput with the v4 delta index, merge on vs off: records/
// second through Database::InsertBatch against a database with a built
// index, (a) with no merging (everything accumulates in the delta),
// (b) with the background merge thread folding aggressively, and (c) one
// explicit foreground Reindex after ingest — plus query latency on the
// pre-merge (tree + delta) and post-merge (tree only) shapes. The
// foreground merge is timed as the median of five merges, each of a
// freshly seeded and ingested database, and reports the relation bytes
// it read per series (a merge packs the points the published tree and
// the delta hold, so it reads none). Not a paper figure — it measures
// what the epoch-published snapshot contract costs and buys: ingest
// never waits on a tree fold-in, merges happen off the write path, and
// queries run lock-free on both shapes.
//
// Besides the console table, the binary drops BENCH_reindex.json in the
// working directory so CI can archive the merge perf trajectory.

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

void Run() {
  bench::Banner(
      "Reindex: ingest + merge throughput with the delta index",
      "InsertBatch appends feature points to the delta (no tree work);\n"
      "a merge STR-bulk-loads main+delta into a fresh tree off the write\n"
      "path. Expected shape: ingest throughput is the same with merging\n"
      "on or off, and post-merge queries match pre-merge answers.");
  std::printf("  hardware threads on this host: %u\n\n",
              std::thread::hardware_concurrency());

  const size_t kIndexed = bench::Scaled(2000, 64);
  const size_t kIngested = bench::Scaled(2000, 64);
  const size_t kLength = 128;
  const size_t kQueries = bench::Scaled(200, 16);

  const auto data = workload::MakeRandomWalkDataset(20260808, kIndexed,
                                                    kLength);
  const auto extra = workload::MakeRandomWalkDataset(20260809, kIngested,
                                                     kLength);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (const TimeSeries& s : extra) {
    names.push_back("delta_" + s.name());
    values.push_back(s.values());
  }

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("reindex");
  bench::Json host = bench::Json::Object();
  host["hardware_threads"] =
      bench::Json::Int(std::thread::hardware_concurrency());
  host["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["host"] = std::move(host);
  bench::Json workload_json = bench::Json::Object();
  workload_json["indexed_series"] = bench::Json::Int(kIndexed);
  workload_json["ingested_series"] = bench::Json::Int(kIngested);
  workload_json["length"] = bench::Json::Int(kLength);
  doc["workload"] = std::move(workload_json);

  bench::ScratchDir dir("reindex");
  bench::Table table({"config", "ingest ms", "records/sec", "merge ms",
                      "min-max", "merge read B/series", "query ms/op"});
  bench::Json sweep = bench::Json::Array();
  int config_index = 0;

  auto seed_db = [&](const std::string& name, uint64_t merge_interval_ms)
      -> std::unique_ptr<Database> {
    DatabaseOptions options;
    options.directory = dir.path();
    options.name = name;
    options.merge_interval_ms = merge_interval_ms;
    auto db = Database::Create(options).value();
    std::vector<std::string> base_names;
    std::vector<RealVec> base_values;
    for (const TimeSeries& s : data) {
      base_names.push_back(s.name());
      base_values.push_back(s.values());
    }
    db->InsertBatch(base_names, base_values, 4).value();
    TSQ_CHECK_MSG(db->BuildIndex().ok(), "bench index build failed");
    return db;
  };

  auto time_queries = [&](Database* db) {
    Stopwatch watch;
    for (size_t i = 0; i < kQueries; ++i) {
      bench::RunQuery(db, engine::BatchQuery::Range(
                              data[(i * 31) % kIndexed].values(), 2.0));
    }
    return watch.ElapsedMillis() / double(kQueries);
  };

  struct Config {
    const char* label;
    uint64_t merge_interval_ms;
    bool foreground_merge;
  };
  for (const Config& config :
       {Config{"merge off (delta only)", 0, false},
        Config{"merge thread 1ms", 1, false},
        Config{"foreground reindex", 0, true}}) {
    const std::string name = "db_" + std::to_string(++config_index);
    std::unique_ptr<Database> db;
    double ingest_ms = 0.0;
    // A freshly seeded database, then the timed ingest.
    const auto ingest = [&] {
      db.reset();  // Create truncates the files of the same name
      db = seed_db(name, config.merge_interval_ms);
      Stopwatch ingest_watch;
      db->InsertBatch(names, values, 4).value();
      ingest_ms = ingest_watch.ElapsedMillis();
    };
    std::optional<bench::CellTiming> merge;
    double merge_bytes_per_series = 0.0;
    if (config.foreground_merge) {
      // Every repetition merges a database of its own, so each one folds
      // the same delta into the same tree.
      merge = bench::RepeatCell([&] {
        ingest();
        const uint64_t read_before = db->StatsSnapshot().relation_bytes_read;
        Stopwatch merge_watch;
        db->Reindex().value();
        const double merge_ms = merge_watch.ElapsedMillis();
        merge_bytes_per_series =
            static_cast<double>(db->StatsSnapshot().relation_bytes_read -
                                read_before) /
            static_cast<double>(db->size());
        return merge_ms;
      });
    } else {
      ingest();
    }
    const double query_ms = time_queries(db.get());
    TSQ_CHECK_MSG(db->size() == kIndexed + kIngested,
                  "reindex bench lost records");

    table.AddRow({config.label, bench::Table::Num(ingest_ms),
                  bench::Table::Num(1000.0 * kIngested / ingest_ms, 0),
                  merge ? bench::Table::Num(merge->median_ms) : "-",
                  merge ? merge->Spread() : "-",
                  merge ? bench::Table::Num(merge_bytes_per_series, 0) : "-",
                  bench::Table::Num(query_ms, 3)});
    bench::Json row = bench::Json::Object();
    row["config"] = bench::Json::Str(config.label);
    row["merge_interval_ms"] = bench::Json::Int(config.merge_interval_ms);
    row["ingest_wall_ms"] = bench::Json::Num(ingest_ms);
    row["records_per_sec"] = bench::Json::Num(1000.0 * kIngested / ingest_ms);
    if (merge) {
      row["merge_wall_ms"] = bench::Json::Num(merge->median_ms);
      row["merge_wall_ms_min"] = bench::Json::Num(merge->min_ms);
      row["merge_wall_ms_max"] = bench::Json::Num(merge->max_ms);
      row["merge_relation_bytes_per_series"] =
          bench::Json::Num(merge_bytes_per_series);
    }
    row["query_ms_per_op"] = bench::Json::Num(query_ms);
    row["delta_entries_after"] =
        bench::Json::Int(db->StatsSnapshot().delta_entries);
    row["merges_completed"] =
        bench::Json::Int(db->StatsSnapshot().merges_completed);
    sweep.Append(std::move(row));
  }
  table.Print();
  doc["sweep"] = std::move(sweep);

  const char* out_path = "BENCH_reindex.json";
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
