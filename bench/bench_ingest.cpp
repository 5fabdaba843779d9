// Copyright (c) 2026 The tsq Authors.
//
// Ingest throughput for the v2 write contract: records/second through
// Database::InsertBatch across 1, 2, 4 and 8 ingest threads and 1, 4 and
// 16 relation segments, against the sequential Insert-by-Insert baseline
// (the seed's write path: one mutex, one heap file). Not a paper figure —
// it measures the segmented parallel ingest pipeline tsq adds on top; the
// resulting relation files are byte-identical in every configuration with
// the same segment count (asserted by tests/ingest_test.cpp), so the
// sweep varies only wall time. Each cell ingests into a fresh database
// once untimed, then bench::kCellReps timed times; the table shows the
// median with its min-max.
//
// Besides the console table, the binary drops BENCH_ingest.json in the
// working directory — every repetition's wall ms, their median and
// records/sec at the median per (segments, threads) cell plus the Insert
// baseline — so CI can archive the ingest perf trajectory across PRs.

#include <cstdio>
#include <functional>
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
      "Parallel ingest: records/sec vs ingest threads x segments",
      "InsertBatch fans DFT feature extraction over the pool and appends\n"
      "one task per relation segment; expected shape: throughput grows\n"
      "with segment count once threads can overlap (flat on a single\n"
      "hardware thread).");
  std::printf("  hardware threads on this host: %u\n\n",
              std::thread::hardware_concurrency());

  const size_t kNumSeries = bench::Scaled(4000, 128);
  const size_t kLength = 128;

  const auto data =
      workload::MakeRandomWalkDataset(20260729, kNumSeries, kLength);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  names.reserve(data.size());
  values.reserve(data.size());
  for (const TimeSeries& s : data) {
    names.push_back(s.name());
    values.push_back(s.values());
  }

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("ingest");
  bench::Json host = bench::Json::Object();
  host["hardware_threads"] =
      bench::Json::Int(std::thread::hardware_concurrency());
  host["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["host"] = std::move(host);
  bench::Json workload_json = bench::Json::Object();
  workload_json["series"] = bench::Json::Int(kNumSeries);
  workload_json["length"] = bench::Json::Int(kLength);
  doc["workload"] = std::move(workload_json);

  // Times one ingest into a fresh database of `segments` segments; the
  // database and its files are gone before the next repetition.
  auto time_ingest = [&](size_t segments,
                         const std::function<void(Database*)>& ingest) {
    bench::ScratchDir dir("ingest");
    DatabaseOptions options;
    options.directory = dir.path();
    options.relation_segments = segments;
    auto db = Database::Create(options).value();
    Stopwatch watch;
    ingest(db.get());
    const double wall_ms = watch.ElapsedMillis();
    TSQ_CHECK_MSG(db->size() == kNumSeries, "ingest lost records");
    return wall_ms;
  };

  // Baseline: the seed's write path — Insert one record at a time.
  const bench::CellTiming baseline_timing = bench::RepeatCell([&] {
    return time_ingest(1, [&](Database* db) {
      for (size_t i = 0; i < names.size(); ++i) {
        db->Insert(names[i], values[i]).value();
      }
    });
  });
  const double baseline_ms = baseline_timing.median_ms;
  std::printf(
      "  Insert-by-Insert baseline (1 segment): %.1f ms (%s), %.0f rec/s\n\n",
      baseline_ms, baseline_timing.Spread().c_str(),
      1000.0 * kNumSeries / baseline_ms);
  bench::Json baseline = bench::Json::Object();
  baseline_timing.AddTo(&baseline);
  baseline["records_per_sec"] =
      bench::Json::Num(1000.0 * kNumSeries / baseline_ms);
  doc["insert_baseline"] = std::move(baseline);

  bench::Table table({"segments", "threads", "wall ms", "min-max",
                      "records/sec", "speedup vs baseline"});
  bench::Json sweep = bench::Json::Array();
  for (const size_t segments : {1u, 4u, 16u}) {
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      const bench::CellTiming timing = bench::RepeatCell([&] {
        return time_ingest(segments, [&](Database* db) {
          db->InsertBatch(names, values, threads).value();
        });
      });
      const double wall_ms = timing.median_ms;
      table.AddRow({std::to_string(segments), std::to_string(threads),
                    bench::Table::Num(wall_ms), timing.Spread(),
                    bench::Table::Num(1000.0 * kNumSeries / wall_ms, 0),
                    bench::Table::Num(baseline_ms / wall_ms, 2)});
      bench::Json row = bench::Json::Object();
      row["segments"] = bench::Json::Int(segments);
      row["threads"] = bench::Json::Int(threads);
      timing.AddTo(&row);
      row["records_per_sec"] =
          bench::Json::Num(1000.0 * kNumSeries / wall_ms);
      sweep.Append(std::move(row));
    }
  }
  table.Print();
  doc["sweep"] = std::move(sweep);

  const char* out_path = "BENCH_ingest.json";
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
