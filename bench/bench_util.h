// Copyright (c) 2026 The tsq Authors.
//
// Shared plumbing for the paper-reproduction benchmark harness: scratch
// directories, database construction from generated workloads, repeated
// timing, and aligned table output so every binary prints rows in the
// shape of the paper's figures/tables.

#ifndef TSQ_BENCH_BENCH_UTIL_H_
#define TSQ_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "series/time_series.h"

namespace tsq {
namespace bench {

/// A unique scratch directory under /tmp, removed at destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Builds a Database over `series`, inserts everything, builds the index.
/// Aborts on error (benchmarks have no error consumers).
std::unique_ptr<Database> BuildDatabase(const std::string& directory,
                                        const std::string& name,
                                        const std::vector<TimeSeries>& series,
                                        const DatabaseOptions& base_options =
                                            DatabaseOptions{});

/// One query as a one-element Database::RunBatch — which runs it on the
/// calling thread — unwrapped by engine::SingleResult: its answers and
/// its own QueryStats. Aborts on error.
engine::BatchResult RunQuery(Database* db, const engine::BatchQuery& query);

/// Runs `fn` `reps` times; returns the mean elapsed milliseconds.
double MeanMillis(const std::function<void()>& fn, int reps);

/// Workload scale divisor from the TSQ_BENCH_SMOKE environment variable
/// (>= 1; 1 when unset or unparsable). The ctest `bench_smoke` entries
/// set it so every figure-reproduction binary runs its full code path on
/// a shrunken workload instead of silently rotting.
size_t SmokeDivisor();

/// n divided by SmokeDivisor(), never below `floor`. Route every
/// workload-sized constant (series counts, query counts, repetitions)
/// through this.
size_t Scaled(size_t n, size_t floor = 1);

/// Aligned-column table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  /// Formats a double with `prec` decimals.
  static std::string Num(double v, int prec = 3);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard benchmark banner (experiment id + paper reference).
void Banner(const std::string& experiment, const std::string& description);

/// A minimal JSON value for the machine-readable BENCH_*.json artifacts
/// the benches drop next to their console tables (CI uploads them so the
/// perf trajectory is tracked across PRs). Supports exactly what those
/// files need: objects (insertion-ordered), arrays, strings, doubles,
/// unsigned integers and booleans. Build with the factory functions and
/// operator[]/Append, then Dump() or WriteFile().
class Json {
 public:
  Json() : kind_(Kind::kNull) {}

  static Json Object() { return Json(Kind::kObject); }
  static Json Array() { return Json(Kind::kArray); }
  static Json Str(std::string v);
  static Json Num(double v);
  static Json Int(uint64_t v);
  static Json Bool(bool v);

  /// Object member access; inserts a null member on first use (insertion
  /// order is preserved in the output). The value must be an object.
  Json& operator[](const std::string& key);

  /// Appends an element. The value must be an array.
  void Append(Json v);

  /// Serializes with 2-space indentation.
  std::string Dump() const;

  /// Writes Dump() to `path` (truncating); returns false on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  enum class Kind { kNull, kObject, kArray, kString, kNumber, kInt, kBool };

  explicit Json(Kind kind) : kind_(kind) {}
  void DumpTo(std::string* out, int indent) const;

  Kind kind_;
  double number_ = 0.0;
  uint64_t int_ = 0;
  bool bool_ = false;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;  // kObject
  std::vector<Json> elements_;                         // kArray
};

/// The timed repetitions of one benchmark cell (see RepeatCell).
struct CellTiming {
  std::vector<double> runs_ms;  ///< every timed repetition, in run order
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;

  /// "min-max" in milliseconds, for a console column beside the median.
  std::string Spread(int prec = 1) const;

  /// Writes wall_ms (the median), wall_ms_min, wall_ms_max and runs_ms
  /// (every repetition) into the JSON object `row`.
  void AddTo(Json* row) const;
};

/// Timed repetitions per benchmark cell. One timing of a cell moves by
/// 15% to 4x between runs on a shared host; the median of five, printed
/// with its min-max, shows which differences are real.
constexpr int kCellReps = 5;

/// Calls `run` once untimed (warm-up), then kCellReps more times. `run`
/// returns the wall-clock milliseconds of the part it times, so set-up
/// such as creating a fresh database stays outside the measurement.
CellTiming RepeatCell(const std::function<double()>& run);

/// The CellTiming of repetitions timed elsewhere (in run order), for
/// benches that interleave their cells within each repetition.
CellTiming Summarize(std::vector<double> runs_ms);

/// The median of a non-empty sample (the upper one of an even count).
double Median(std::vector<double> values);

}  // namespace bench
}  // namespace tsq

#endif  // TSQ_BENCH_BENCH_UTIL_H_
