// Copyright (c) 2026 The tsq Authors.
//
// perfbench: the end-to-end benchmark of tsq served by tsqd.
//
// One process builds a Database, starts tsqd in-process on loopback with
// default ServerOptions, and replays a seeded op list through
// server::Client connections. The loop is closed: the client library
// keeps one request in flight per connection, so each connection sends
// its next op only when the previous reply arrived. Every answer is
// checked, and the last line on stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR [--out-dir DIR] [--scale K]
//             [--corrupt op:N|oracle|reindex]
//
// --trace 0 reports the end-to-end metrics; nothing but client calls is
// on the clock. --trace 1 is a separate run that replays the same ops
// one layer at a time (client round trip, in-process RunBatch, the
// direct Algorithm 2 steps, Relation::Get and VerifyDistance), records a
// span around each call and reports the per-layer metrics.
// perfbench/README.md defines every workload and metric.
//
// Noise rules the driver follows: op lists are generated before any
// clock starts and a run ends when its list ends; nothing is
// time-triggered (no merge thread, no slow-query log); durability stays
// kNone; the database files live on a private tmpfs and syncs do not
// reach the device (below); every workload keeps all CPUs busy with its
// own connections; every size divides by --scale, which the benchmark's
// own tests use to run all the checks quickly.

#include <malloc.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "core/queries.h"
#include "core/seq_scan.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

// Device syncs. Whatever the durability level, Reindex publishes the
// merged index with fdatasync of the new file and fsync of the directory,
// and Database::Flush and the buffer pool's destructor sync the index
// file. The database files live on a private tmpfs (MountMemoryDir),
// where both calls return at once, so that a run's timings depend on tsq
// and not on a device that other tenants share. Where the tmpfs cannot be
// mounted, the files stay in the checkout, which can sit on such a disk;
// so these definitions take the place of libc's for every call in this
// executable and behave as on tmpfs: they return at once. Each call is
// counted, and the count is printed with the results.
namespace {
std::atomic<uint64_t> device_syncs_skipped{0};
}  // namespace

extern "C" int fsync(int) {
  device_syncs_skipped.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

extern "C" int fdatasync(int) {
  device_syncs_skipped.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

namespace tsq {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  size_t series;       ///< base relation size
  size_t length;       ///< series length
  /// Closed-loop client connections. Every workload keeps all four CPUs
  /// of the reference host busy with its own ops: a lone connection
  /// leaves CPUs idle, and its timings then follow how fast the host
  /// wakes them, which drifts with the host's load (see README).
  size_t connections;
  int setups;          ///< set-ups per run; setup_s is their median
  /// Op-list length per second of --seconds: queries (lookup,
  /// paper_mix) or insert cycles (ingest, in replays of at most
  /// kIngestCycles). Sized so that the measured phase takes about
  /// --seconds on a 4-CPU x86-64 VM.
  double ops_per_second;
  /// Range ops compared against the sequential-scan oracle.
  size_t oracle_samples;
};

constexpr Workload kWorkloads[] = {
    {"lookup", 100000, 128, 4, 3, 3000, 4},
    {"paper_mix", 12000, 128, 4, 5, 700, 12},
    {"ingest", 12000, 128, 4, 5, 20, 0},
};

/// Query-pool size: distinct stored series the read ops draw from.
constexpr size_t kQueryPool = 4096;
/// Series per InsertBatch call while loading the base relation.
constexpr size_t kLoadChunk = 4096;
/// ingest: series per INSERT, queries per cycle, cycles per REINDEX.
/// 64 queries keep the four connections busy for 16 round trips each
/// after every INSERT, so that the wait for idle CPUs to wake at the
/// start of a cycle's queries touches one query in 16 per connection
/// (with 16 queries per cycle, one in 4; their p90 then spread 0.22 to
/// 0.40 over ten seeds).
constexpr size_t kIngestBatch = 256;
constexpr size_t kIngestQueries = 64;
constexpr size_t kReindexEvery = 8;
/// ingest: cycles in its op list (15 REINDEXes, 12,000 -> 42,720
/// series). A run that asks for more cycles replays the list, each time
/// on a fresh set-up of the same base, so that every replay does the
/// same work.
constexpr size_t kIngestCycles = 120;
/// One read op in kTraceShare is replayed at every layer in a traced
/// run; the others run through the client only. This keeps a traced run
/// within a few times the length of an untraced one.
constexpr int64_t kTraceShare = 4;
/// Untimed warm-up ops per connection before a measured read phase.
constexpr size_t kWarmupOps = 1250;
/// Ops replayed at 1 and at 4 connections for engine.scaling.
constexpr size_t kScalingOps = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string out_dir;
  size_t scale = 1;
  /// Test hooks (--corrupt op:N|oracle|reindex) that tamper with an
  /// answer before it is checked, to prove that a wrong answer fails the
  /// run: the first match of op N; a member other than the query series
  /// of one oracle-checked range; one kNN check after a REINDEX.
  int64_t corrupt_op = -1;
  bool corrupt_oracle = false;
  bool corrupt_reindex = false;
};

/// Aborts the run without a result line: an in-process call that must
/// not fail did (tsqd threads may still be running, hence _Exit).
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(Result<T> result, const char* what) {
  MustOk(result.status(), what);
  return std::move(result).value();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

QuerySpec MovingAverageSpec(size_t length) {
  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(length, 20));
  return spec;
}

/// Same answer set: ids equal, distances equal up to rounding (the index
/// and the scan may compute a distance through different kernels).
bool SameMatches(std::vector<Match> got, std::vector<Match> want) {
  if (got.size() != want.size()) return false;
  auto by_id = [](const Match& a, const Match& b) { return a.id < b.id; };
  std::sort(got.begin(), got.end(), by_id);
  std::sort(want.begin(), want.end(), by_id);
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id ||
        std::fabs(got[i].distance - want[i].distance) >
            1e-6 * std::max(1.0, want[i].distance)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------

/// One timed call. Children of a span are later calls on the same
/// thread, so they never overlap each other.
struct Span {
  uint64_t op = 0;
  int32_t parent = -1;  ///< index in the same recorder, -1 for a root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t count = 1;  ///< items the call covered (candidates), else 1
};

/// Per-thread span buffer; merged and written once when the run ends.
class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint64_t op, int32_t parent) {
    Span span;
    span.op = op;
    span.parent = parent;
    span.name = name;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Closes span `index`; returns its duration in ms.
  double End(int32_t index, uint32_t count = 1) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    span.count = count;
    return NsToMs(span.end_ns - span.start_ns);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-name aggregate over every span: duration and self time (duration
/// minus the time the span's children cover).
struct SpanSummary {
  uint64_t spans = 0;
  uint64_t items = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;
};

/// Writes every span to `path` (CSV, one line per span, times relative
/// to `t0_ns`) and returns the per-name summaries.
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<const SpanRecorder*>& recorders, int64_t t0_ns,
    const std::string& path) {
  std::map<std::string, SpanSummary> out;
  FILE* file = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
  if (file != nullptr) {
    std::fprintf(file, "span,parent,op,name,start_ns,end_ns,count\n");
  }
  uint64_t base = 0;
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanSummary& sum = out[s.name];
      const double ms = NsToMs(s.end_ns - s.start_ns);
      ++sum.spans;
      sum.items += s.count;
      sum.total_ms += ms;
      sum.self_ms += ms - NsToMs(child_ns[i]);
      sum.durations_ms.push_back(ms);
      if (file != nullptr) {
        std::fprintf(file, "%llu,%lld,%llu,%s,%lld,%lld,%u\n",
                     static_cast<unsigned long long>(base + i),
                     s.parent < 0 ? -1LL
                                  : static_cast<long long>(base + s.parent),
                     static_cast<unsigned long long>(s.op), s.name,
                     static_cast<long long>(s.start_ns - t0_ns),
                     static_cast<long long>(s.end_ns - t0_ns), s.count);
      }
    }
    base += spans.size();
  }
  if (file != nullptr) std::fclose(file);
  return out;
}

void PrintSpanTable(const std::map<std::string, SpanSummary>& summary) {
  std::printf("\n  %-22s %9s %10s %12s %12s %12s\n", "span", "count",
              "items", "p50 ms", "mean ms", "self ms/span");
  for (const auto& [name, s] : summary) {
    std::printf("  %-22s %9llu %10llu %12.4f %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(s.spans),
                static_cast<unsigned long long>(s.items),
                Median(s.durations_ms), s.total_ms / s.spans,
                s.self_ms / s.spans);
  }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ops attempted and failed (error status, refused, or wrong answer).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few, for the report

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// Prints the human-readable block, then the JSON result line. Returns
/// the exit code: 0 only when every op succeeded with a correct answer.
int Report(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& e : tally.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::printf("\n  fail_ratio %.6f ratio (%llu of %llu ops)\n",
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<uint64_t>(tally.attempted, 1)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("  fsync/fdatasync calls returned without device I/O: %llu\n",
              static_cast<unsigned long long>(device_syncs_skipped.load()));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every per-layer metric, in output order, with its unit. A workload
/// that does not exercise a layer reports 0 and names the reason.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"server.wire_ms", "ms"},
      {"server.codec_us", "us"},
      {"server.insert_wire_ms", "ms"},
      {"engine.dispatch_ms", "ms"},
      {"engine.scaling", "ratio"},
      {"core.prepare_us", "us"},
      {"core.search_ms", "ms"},
      {"core.verify_ms", "ms"},
      {"core.candidates_per_query", "count"},
      {"core.precision", "ratio"},
      {"core.delta_per_query", "count"},
      {"core.extract_us", "us"},
      {"core.insert_ms", "ms"},
      {"core.build_index_s", "s"},
      {"core.reindex_ms", "ms"},
      {"core.reindex_bytes_per_series", "B"},
      {"rtree.nodes_per_query", "count"},
      {"rtree.rect_transforms_per_query", "count"},
      {"buffer_pool.hit_ratio", "ratio"},
      {"buffer_pool.disk_reads_per_query", "count"},
      {"relation.get_us", "us"},
      {"relation.bytes_read_per_query", "B"},
      {"relation.bytes_written_per_series", "B"},
      {"series.distance_us", "us"},
      {"transform.gap_ms", "ms"},
      {"obs.trace_overhead", "ratio"},
  };
  return names;
}

/// Per-layer values of one traced run.
class LayerReport {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void NotMeasured(const std::string& name, const std::string& why) {
    reasons_[name] = why;
  }
  void NotMeasuredWrites() {
    for (const char* name : {"server.insert_wire_ms", "core.insert_ms",
                             "core.reindex_ms",
                             "core.reindex_bytes_per_series"}) {
      NotMeasured(name, "read-only workload: no INSERT or REINDEX");
    }
  }
  std::vector<Metric> Finish() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : LayerMetricNames()) {
      auto it = values_.find(name);
      if (it == values_.end()) {
        auto why = reasons_.find(name);
        std::printf("  n/a %-32s %s\n", name.c_str(),
                    why == reasons_.end() ? "not measured on this workload"
                                          : why->second.c_str());
      }
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> reasons_;
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One served database: the files live in `dir`, removed at destruction.
struct Instance {
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;
  double setup_s = 0.0;
  double build_index_s = 0.0;
  uint64_t bytes_written_at_load = 0;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    server.reset();
    db.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    // Hand the freed memory back to the kernel, so that the next set-up
    // starts from the same resident set whichever threads' malloc arenas
    // this one used; peak_rss_mb then measures one instance, not what the
    // allocator kept from earlier ones.
    malloc_trim(0);
  }
  uint16_t port() const { return server->port(); }
};

/// Stored series the read ops use as queries.
struct QueryPool {
  std::vector<SeriesId> ids;
  std::vector<RealVec> values;
};

std::string SeriesName(const char* prefix, uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%07llu", prefix,
                static_cast<unsigned long long>(i));
  return buf;
}

/// Produces the base relation chunk by chunk: fill(first, n, names,
/// values) generates series [first, first+n). Generation is off the
/// clock.
using ChunkSource = std::function<void(
    size_t, size_t, std::vector<std::string>*, std::vector<RealVec>*)>;

/// Create + load + BuildIndex + server start, timed without the data
/// generation. `pool` (optional) receives the values of its ids.
std::unique_ptr<Instance> SetUp(const std::string& dir, size_t count,
                                const ChunkSource& source, QueryPool* pool) {
  auto inst = std::make_unique<Instance>();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  inst->dir = dir;
  DatabaseOptions options;
  options.directory = dir;
  options.name = "bench";
  int64_t timed_ns = 0;
  int64_t t0 = NowNs();
  inst->db = Must(Database::Create(options), "Database::Create");
  timed_ns += NowNs() - t0;
  std::vector<std::string> names;
  std::vector<RealVec> values;
  size_t next_pool = 0;
  for (size_t first = 0; first < count; first += kLoadChunk) {
    const size_t n = std::min(kLoadChunk, count - first);
    names.clear();
    values.clear();
    source(first, n, &names, &values);
    if (pool != nullptr) {
      while (next_pool < pool->ids.size() && pool->ids[next_pool] < first + n) {
        pool->values[next_pool] = values[pool->ids[next_pool] - first];
        ++next_pool;
      }
    }
    t0 = NowNs();
    Must(inst->db->InsertBatch(names, values), "InsertBatch (load)");
    timed_ns += NowNs() - t0;
  }
  inst->bytes_written_at_load =
      inst->db->StatsSnapshot().relation_bytes_written;
  t0 = NowNs();
  MustOk(inst->db->BuildIndex(), "BuildIndex");
  const int64_t build_ns = NowNs() - t0;
  t0 = NowNs();
  inst->server = Must(
      server::Server::Start(inst->db.get(), server::ServerOptions{}),
      "Server::Start");
  timed_ns += build_ns + (NowNs() - t0);
  inst->setup_s = static_cast<double>(timed_ns) / 1e9;
  inst->build_index_s = static_cast<double>(build_ns) / 1e9;
  return inst;
}

/// Sets up `setups` times; returns the last instance and the set-up and
/// BuildIndex times of all of them.
std::unique_ptr<Instance> SetUpRepeated(const Args& args, int setups,
                                        size_t count,
                                        const ChunkSource& source,
                                        QueryPool* pool,
                                        std::vector<double>* setup_s,
                                        std::vector<double>* build_s) {
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < setups; ++i) {
    inst.reset();  // tear the previous one down first
    inst = SetUp(args.data_dir + "/db", count, source, pool);
    setup_s->push_back(inst->setup_s);
    build_s->push_back(inst->build_index_s);
  }
  return inst;
}

ChunkSource RandomWalkSource(uint64_t seed, size_t length) {
  // One generator over the whole relation, so chunking never changes
  // the data; regenerated from the seed on every set-up.
  auto rng = std::make_shared<Rng>(seed);
  return [rng, seed, length](size_t first, size_t n,
                             std::vector<std::string>* names,
                             std::vector<RealVec>* values) {
    if (first == 0) *rng = Rng(seed);
    for (size_t i = 0; i < n; ++i) {
      names->push_back(SeriesName("w", first + i));
      values->push_back(workload::RandomWalkSeries(rng.get(), length));
    }
  };
}

QueryPool MakeQueryPool(uint64_t seed, size_t series) {
  Rng rng(seed ^ 0x51ED270B27B6F3A1ull);
  std::set<SeriesId> ids;
  const size_t want = std::min(kQueryPool, series);
  while (ids.size() < want) {
    ids.insert(static_cast<SeriesId>(
        rng.UniformInt(0, static_cast<int64_t>(series) - 1)));
  }
  QueryPool pool;
  pool.ids.assign(ids.begin(), ids.end());
  pool.values.resize(pool.ids.size());
  return pool;
}

/// Relation segments plus index file over N·L·8 bytes of samples.
double SpaceAmp(Instance* inst) {
  MustOk(inst->db->Flush(), "Flush");
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(inst->dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench.rel.", 0) == 0 || name == "bench.idx") {
      bytes += entry.file_size();
    }
  }
  const double raw = static_cast<double>(inst->db->size()) *
                     static_cast<double>(inst->db->series_length()) * 8.0;
  return static_cast<double>(bytes) / raw;
}

/// The end-to-end metrics, in BENCHMARK.json order. `reads_ms` holds the
/// client latency of every read op.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const std::vector<double>& reads_ms,
                             double throughput, Instance* inst) {
  return {{"setup_s", Median(setup_s), "s"},
          {"read_p50_ms", Median(reads_ms), "ms"},
          {"read_p90_ms", Percentile(reads_ms, 0.9), "ms"},
          {"throughput_per_s", throughput, "1/s"},
          {"peak_rss_mb", PeakRssMb(), "MiB"},
          {"space_amp", SpaceAmp(inst), "ratio"}};
}

std::unique_ptr<server::Client> Connect(uint16_t port) {
  return Must(server::Client::Connect("127.0.0.1", port), "Client::Connect");
}

/// A fixed set of threads, one per client connection, that runs phase
/// after phase: Run hands out items [0, n) from a shared cursor and
/// returns when every item is done. The caller is thread 0, so between
/// phases it can use connection 0 alone.
class Crew {
 public:
  explicit Crew(size_t size) {
    for (size_t t = 1; t < size; ++t) {
      helpers_.emplace_back([this, t] { Loop(t); });
    }
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;
  ~Crew() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  /// Runs fn(thread, item) for every item in [0, n).
  void Run(size_t n, std::function<void(size_t, size_t)> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = std::move(fn);
      n_ = n;
      cursor_.store(0);
      busy_ = helpers_.size();
      ++generation_;
    }
    wake_.notify_all();
    Work(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
  }

 private:
  void Work(size_t t) {
    for (size_t i = cursor_.fetch_add(1); i < n_; i = cursor_.fetch_add(1)) {
      fn_(t, i);
    }
  }
  void Loop(size_t t) {
    uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      Work(t);
      std::lock_guard<std::mutex> lock(mu_);
      if (--busy_ == 0) done_.notify_one();
    }
  }

  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable wake_, done_;
  std::function<void(size_t, size_t)> fn_;
  size_t n_ = 0;
  std::atomic<size_t> cursor_{0};
  size_t busy_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

// ---------------------------------------------------------------------------
// Read ops (lookup, paper_mix, and the queries of ingest)
// ---------------------------------------------------------------------------

struct ReadOp {
  bool knn = false;    ///< kNN k=1, else range
  bool tmavg = false;  ///< range through Tmavg20
  uint32_t slot = 0;   ///< query-pool slot
  bool oracle = false; ///< answer compared with the scan after the run
  bool traced = false; ///< replayed at every layer in a traced run
};

struct ReadCtx {
  Database* db = nullptr;
  uint16_t port = 0;
  const QueryPool* pool = nullptr;
  double epsilon = 0.0;
  QuerySpec plain;
  QuerySpec tmavg;
  std::vector<ReadOp> ops;
  std::map<std::pair<uint32_t, bool>, std::vector<Match>> expected;
  int64_t corrupt_op = -1;
  bool corrupt_oracle = false;
  mutable std::atomic<bool> oracle_corrupted{false};

  const QuerySpec& spec(const ReadOp& op) const {
    return op.tmavg ? tmavg : plain;
  }
  engine::BatchQuery ToBatchQuery(const ReadOp& op) const {
    engine::BatchQuery q;
    q.kind = op.knn ? engine::BatchQueryKind::kKnn
                    : engine::BatchQueryKind::kRange;
    q.query = pool->values[op.slot];
    q.epsilon = epsilon;
    q.k = 1;
    if (!op.knn) q.spec = spec(op);
    return q;
  }
};

/// Checks one read answer: kNN k=1 of stored series s returns s, a range
/// around s contains s, and an oracle-sampled range equals the scan.
void CheckRead(const ReadCtx& ctx, uint64_t g, const ReadOp& op,
               Result<std::vector<Match>> answer, Tally* tally) {
  if (!answer.ok()) {
    tally->Fail("op " + std::to_string(g) + ": " + answer.status().ToString());
    return;
  }
  std::vector<Match>& m = *answer;
  const SeriesId self = ctx.pool->ids[op.slot];
  if (static_cast<int64_t>(g) == ctx.corrupt_op && !m.empty()) m[0].id ^= 1;
  if (op.oracle && ctx.corrupt_oracle &&
      !ctx.oracle_corrupted.exchange(true)) {
    // Keep the query series, so that only the scan comparison can tell.
    auto other = std::find_if(m.begin(), m.end(),
                              [self](const Match& x) { return x.id != self; });
    if (other != m.end()) {
      m.erase(other);
    } else {
      m.push_back(Match{self ^ 1, "", 0.0});
    }
  }
  const char* wrong = nullptr;
  if (op.knn) {
    if (m.size() != 1 || m[0].id != self) wrong = "does not return it";
  } else if (std::none_of(m.begin(), m.end(),
                          [self](const Match& x) { return x.id == self; })) {
    wrong = "does not contain it";
  } else if (op.oracle &&
             !SameMatches(m, ctx.expected.at({op.slot, op.tmavg}))) {
    wrong = "differs from the scan";
  }
  if (wrong != nullptr) {
    tally->Fail("op " + std::to_string(g) + ": " +
                (op.knn ? "kNN" : op.tmavg ? "Tmavg20 range" : "range") +
                " of series " + std::to_string(self) + " " + wrong);
  }
}

Result<std::vector<Match>> ClientRead(const ReadCtx& ctx, server::Client* c,
                                      const ReadOp& op) {
  const RealVec& q = ctx.pool->values[op.slot];
  if (op.knn) return c->Knn(q, 1);
  return c->Range(q, ctx.epsilon, ctx.spec(op));
}

/// Layer sums one connection collects in a traced read phase.
struct ReadLayers {
  std::vector<double> client_ms, engine_ms, direct_ms;
  double codec_us = 0, prepare_us = 0, search_ms = 0, verify_ms = 0;
  uint64_t queries = 0, ranges = 0;
  uint64_t range_candidates = 0, range_answers = 0, candidates = 0;
  uint64_t nodes = 0, rect_transforms = 0, delta = 0;
  double get_ms = 0, distance_ms = 0;
  uint64_t refined = 0;
  double stage_ms[5] = {0, 0, 0, 0, 0};

  void Merge(const ReadLayers& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&client_ms, o.client_ms);
    cat(&engine_ms, o.engine_ms);
    cat(&direct_ms, o.direct_ms);
    codec_us += o.codec_us;
    prepare_us += o.prepare_us;
    search_ms += o.search_ms;
    verify_ms += o.verify_ms;
    queries += o.queries;
    ranges += o.ranges;
    range_candidates += o.range_candidates;
    range_answers += o.range_answers;
    candidates += o.candidates;
    nodes += o.nodes;
    rect_transforms += o.rect_transforms;
    delta += o.delta;
    get_ms += o.get_ms;
    distance_ms += o.distance_ms;
    refined += o.refined;
    for (int i = 0; i < 5; ++i) stage_ms[i] += o.stage_ms[i];
  }
};

/// Replays one read op at every layer: the client round trip, the
/// in-process RunBatch of the same query, and the direct Algorithm 2
/// steps (PrepareQuery, RangeSearchCandidates or a whole IndexKnnQuery,
/// VerifyRangeCandidates, then Relation::Get and VerifyDistance per
/// candidate). The three replays rotate with the op index so that each
/// layer runs first — on the coldest caches — equally often. Then the
/// op's request and reply frames are encoded and decoded once. Returns
/// the client round trip in ms.
double TraceReadOp(const ReadCtx& ctx, server::Client* client, uint64_t g,
                   const ReadOp& op, SpanRecorder* rec, ReadLayers* out,
                   Tally* tally) {
  const int32_t root = rec->Begin("op", g, -1);
  const engine::BatchQuery bq = ctx.ToBatchQuery(op);
  std::vector<engine::BatchResult> engine_results;
  double client_ms = 0.0;
  for (int step = 0; step < 3; ++step) {
    switch ((g + step) % 3) {
      case 0: {
        const int32_t s = rec->Begin("client", g, root);
        auto answer = ClientRead(ctx, client, op);
        client_ms = rec->End(s);
        out->client_ms.push_back(client_ms);
        ++tally->attempted;
        CheckRead(ctx, g, op, std::move(answer), tally);
        break;
      }
      case 1: {
        const int32_t s = rec->Begin("engine.run_batch", g, root);
        engine_results = Must(ctx.db->RunBatch({bq}), "RunBatch");
        out->engine_ms.push_back(rec->End(s));
        const QueryStats& st = engine_results[0].stats;
        out->candidates += st.candidates;
        out->nodes += st.nodes_visited;
        out->rect_transforms += st.rect_transforms;
        if (!op.knn) {
          out->range_candidates += st.candidates;
          out->range_answers += st.answers;
        }
        out->stage_ms[0] += st.prepare_ms;
        out->stage_ms[1] += st.descent_ms;
        out->stage_ms[2] += st.delta_ms;
        out->stage_ms[3] += st.pool_wait_ms;
        out->stage_ms[4] += st.refine_ms;
        break;
      }
      default: {
        auto snap = ctx.db->CurrentSnapshot();
        const IndexView view(*snap);
        const Relation& relation = *ctx.db->relation();
        out->delta += view.delta_size();
        const QuerySpec& spec = ctx.spec(op);
        const int32_t core = rec->Begin("core.direct", g, root);
        int32_t s = rec->Begin("core.prepare", g, core);
        const PreparedQuery prepared =
            Must(PrepareQuery(view, bq.query, spec), "PrepareQuery");
        out->prepare_us += rec->End(s) * 1e3;
        std::vector<Match> matches;
        if (op.knn) {
          s = rec->Begin("core.knn", g, core);
          MustOk(IndexKnnQuery(view, relation, bq.query, 1, spec, &matches,
                               nullptr),
                 "IndexKnnQuery");
          const double knn_ms = rec->End(s);  // prepares internally too
          out->search_ms += knn_ms;
          out->direct_ms.push_back(knn_ms);
          rec->End(core);
          break;
        }
        std::vector<SeriesId> candidates;
        s = rec->Begin("core.search", g, core);
        MustOk(RangeSearchCandidates(view, prepared, ctx.epsilon, spec,
                                     &candidates),
               "RangeSearchCandidates");
        out->search_ms += rec->End(s);
        s = rec->Begin("core.verify", g, core);
        MustOk(VerifyRangeCandidates(relation, candidates, prepared, spec,
                                     ctx.epsilon, &matches, nullptr),
               "VerifyRangeCandidates");
        out->verify_ms += rec->End(s);
        out->direct_ms.push_back(rec->End(core));
        // Refine again, one layer down: fetch every candidate, then
        // compute every distance, so each call gets its own span.
        const int32_t refine = rec->Begin("core.refine_replay", g, root);
        std::vector<SeriesRecord> records;
        records.reserve(candidates.size());
        s = rec->Begin("relation.get", g, refine);
        for (const SeriesId id : candidates) {
          records.push_back(Must(relation.Get(id), "Relation::Get"));
        }
        out->get_ms += rec->End(s, static_cast<uint32_t>(candidates.size()));
        s = rec->Begin("series.distance", g, refine);
        double sink = 0.0;
        for (const SeriesRecord& r : records) {
          sink += VerifyDistance(r.dft, spec.transform,
                                 prepared.full_spectrum);
        }
        out->distance_ms +=
            rec->End(s, static_cast<uint32_t>(candidates.size()));
        rec->End(refine, static_cast<uint32_t>(candidates.size()));
        out->refined += candidates.size();
        if (!std::isfinite(sink)) Die("non-finite verification distance");
        break;
      }
    }
  }
  // The op's real frames through the wire codec.
  const int32_t s = rec->Begin("server.codec", g, root);
  server::Request request;
  request.verb = server::Verb::kQuery;
  request.id = g + 1;
  request.queries.push_back(bq);
  serde::Buffer frame;
  server::EncodeRequest(request, &frame);
  server::Request decoded_request;
  MustOk(server::DecodeRequest(frame.data() + server::kFrameHeaderBytes,
                               frame.size() - server::kFrameHeaderBytes,
                               &decoded_request),
         "DecodeRequest");
  server::Reply reply;
  reply.verb = server::Verb::kQuery;
  reply.id = request.id;
  reply.results = std::move(engine_results);
  frame.clear();
  server::EncodeReply(reply, &frame);
  server::Reply decoded_reply;
  MustOk(server::DecodeReply(frame.data() + server::kFrameHeaderBytes,
                             frame.size() - server::kFrameHeaderBytes,
                             &decoded_reply),
         "DecodeReply");
  out->codec_us += rec->End(s) * 1e3;
  ++out->queries;
  if (!op.knn) ++out->ranges;
  rec->End(root);
  return client_ms;
}

/// What one read phase produced.
struct ReadPhase {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< client latency per op
  std::vector<double> plain_ms, tmavg_ms;
  Tally tally;
  ReadLayers layers;                          // traced only
  std::vector<std::unique_ptr<SpanRecorder>> recorders;  // traced only
};

/// Replays ops [first, last) of ctx.ops over `conns` closed-loop
/// connections, each taking the next op from a shared cursor so that all
/// stay busy until the list ends. Untraced, only the client call is on
/// the clock; traced, every op gets spans and the ops marked `traced`
/// run TraceReadOp.
ReadPhase RunReadPhase(const ReadCtx& ctx, size_t first, size_t last,
                       size_t conns, bool traced) {
  ReadPhase phase;
  std::vector<std::unique_ptr<server::Client>> clients;
  for (size_t c = 0; c < conns; ++c) clients.push_back(Connect(ctx.port));
  std::vector<ReadPhase> per(conns);
  for (size_t c = 0; c < conns; ++c) {
    per[c].recorders.push_back(std::make_unique<SpanRecorder>());
  }
  std::atomic<bool> go{false};
  std::atomic<size_t> cursor{first};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ReadPhase& mine = per[c];
      for (size_t g = cursor.fetch_add(1); g < last; g = cursor.fetch_add(1)) {
        const ReadOp& op = ctx.ops[g];
        SpanRecorder* rec = mine.recorders[0].get();
        double ms;
        if (traced && op.traced) {
          ms = TraceReadOp(ctx, clients[c].get(), g, op, rec, &mine.layers,
                           &mine.tally);
        } else {
          const int32_t root = traced ? rec->Begin("op", g, -1) : -1;
          const int32_t span = traced ? rec->Begin("client", g, root) : -1;
          const int64_t t0 = NowNs();
          auto answer = ClientRead(ctx, clients[c].get(), op);
          ms = NsToMs(NowNs() - t0);
          if (traced) {
            rec->End(span);
            rec->End(root);
          }
          ++mine.tally.attempted;
          CheckRead(ctx, g, op, std::move(answer), &mine.tally);
        }
        mine.latency_ms.push_back(ms);
        if (!op.knn) (op.tmavg ? mine.tmavg_ms : mine.plain_ms).push_back(ms);
      }
    });
  }
  const int64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  phase.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (ReadPhase& p : per) {
    phase.tally.Merge(p.tally);
    phase.layers.Merge(p.layers);
    phase.recorders.push_back(std::move(p.recorders[0]));
    phase.latency_ms.insert(phase.latency_ms.end(), p.latency_ms.begin(),
                            p.latency_ms.end());
    phase.plain_ms.insert(phase.plain_ms.end(), p.plain_ms.begin(),
                          p.plain_ms.end());
    phase.tmavg_ms.insert(phase.tmavg_ms.end(), p.tmavg_ms.begin(),
                          p.tmavg_ms.end());
  }
  return phase;
}

/// Client-only replays of the op-list prefix at one and at four
/// connections: engine.scaling, and the pool and relation counters per
/// query (exact, since one connection runs one op at a time).
struct ScalingProbe {
  double qps1 = 0, qps4 = 0;
  double hit_ratio = 0, disk_reads_per_query = 0, bytes_per_query = 0;
};

ScalingProbe ProbeScaling(const ReadCtx& ctx, size_t count, Tally* tally) {
  ScalingProbe probe;
  const DatabaseStats before = ctx.db->StatsSnapshot();
  ReadPhase one = RunReadPhase(ctx, 0, count, 1, false);
  const DatabaseStats after = ctx.db->StatsSnapshot();
  ReadPhase four = RunReadPhase(ctx, 0, count, 4, false);
  tally->Merge(one.tally);
  tally->Merge(four.tally);
  const double n = static_cast<double>(count);
  probe.qps1 = n / one.wall_s;
  probe.qps4 = n / four.wall_s;
  const double hits = static_cast<double>(after.pool_hits - before.pool_hits);
  const double misses =
      static_cast<double>(after.pool_misses - before.pool_misses);
  probe.hit_ratio = hits / std::max(1.0, hits + misses);
  probe.disk_reads_per_query =
      static_cast<double>(after.pool_disk_reads - before.pool_disk_reads) / n;
  probe.bytes_per_query =
      static_cast<double>(after.relation_bytes_read -
                          before.relation_bytes_read) /
      n;
  return probe;
}

/// Per-layer values every read-serving workload reports from a traced
/// phase plus its scaling probe. `client_ms` holds the client latency of
/// every op of the traced phase and `untraced_p50` the p50 of the same
/// ops replayed untraced at the same connection count; their ratio,
/// obs.trace_overhead, includes the CPU time the in-process replays of
/// the traced ops take from the other connections.
void ReportReadLayers(const ReadLayers& l,
                      const std::vector<double>& client_ms,
                      const ScalingProbe& probe, double untraced_p50,
                      LayerReport* report) {
  report->Set("obs.trace_overhead", Median(client_ms) / untraced_p50);
  const double q = static_cast<double>(std::max<uint64_t>(l.queries, 1));
  const double r = static_cast<double>(std::max<uint64_t>(l.ranges, 1));
  report->Set("server.wire_ms", Median(l.client_ms) - Median(l.engine_ms));
  report->Set("server.codec_us", l.codec_us / q);
  report->Set("engine.dispatch_ms", Median(l.engine_ms) - Median(l.direct_ms));
  report->Set("engine.scaling", probe.qps4 / (4.0 * probe.qps1));
  report->Set("core.prepare_us", l.prepare_us / q);
  report->Set("core.search_ms", l.search_ms / q);
  if (l.ranges > 0) {
    report->Set("core.verify_ms", l.verify_ms / r);
    report->Set("core.precision",
                static_cast<double>(l.range_answers) /
                    static_cast<double>(
                        std::max<uint64_t>(l.range_candidates, 1)));
  }
  report->Set("core.candidates_per_query",
              static_cast<double>(l.candidates) / q);
  report->Set("core.delta_per_query", static_cast<double>(l.delta) / q);
  report->Set("rtree.nodes_per_query", static_cast<double>(l.nodes) / q);
  report->Set("rtree.rect_transforms_per_query",
              static_cast<double>(l.rect_transforms) / q);
  report->Set("buffer_pool.hit_ratio", probe.hit_ratio);
  report->Set("buffer_pool.disk_reads_per_query", probe.disk_reads_per_query);
  report->Set("relation.bytes_read_per_query", probe.bytes_per_query);
  if (l.refined > 0) {
    report->Set("relation.get_us",
                l.get_ms * 1e3 / static_cast<double>(l.refined));
    report->Set("series.distance_us",
                l.distance_ms * 1e3 / static_cast<double>(l.refined));
  }
  std::printf(
      "\n  QueryStats stage self time per query (tracing armed, in-process "
      "RunBatch) beside the direct spans:\n"
      "    stage prepare %.2f us | span core.prepare %.2f us\n"
      "    stage descent+delta+pool_wait %.2f us | span core.search/knn %.2f "
      "us\n"
      "    stage refine %.2f us | span core.verify %.2f us per range\n",
      l.stage_ms[0] * 1e3 / q, l.prepare_us / q,
      (l.stage_ms[1] + l.stage_ms[2] + l.stage_ms[3]) * 1e3 / q,
      l.search_ms * 1e3 / q, l.stage_ms[4] * 1e3 / q,
      l.verify_ms * 1e3 / r);
}

/// Mean FeatureExtractor::Extract time per series over `values`.
double ExtractMicros(const Database& db, const std::vector<RealVec>& values,
                     SpanRecorder* rec, uint64_t op, int32_t parent) {
  const int32_t s = rec->Begin("core.extract", op, parent);
  double sink = 0.0;
  for (const RealVec& v : values) sink += db.extractor().Extract(v).std;
  const double ms = rec->End(s, static_cast<uint32_t>(values.size()));
  if (!std::isfinite(sink)) Die("non-finite feature");
  return ms * 1e3 / static_cast<double>(std::max<size_t>(values.size(), 1));
}

size_t Scaled(double n, size_t scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(n)) / scale);
}

// ---------------------------------------------------------------------------
// lookup and paper_mix
// ---------------------------------------------------------------------------

int RunReadWorkload(const Args& args, const Workload& w) {
  const bool paper = std::string(w.name) == "paper_mix";
  const size_t series = Scaled(static_cast<double>(w.series), args.scale, 512);
  const size_t count = Scaled(w.ops_per_second * args.seconds, args.scale, 64);
  QueryPool pool = MakeQueryPool(args.seed, series);
  std::vector<double> setup_s, build_s;
  const int64_t setup_start = NowNs();
  auto inst = SetUpRepeated(args, w.setups, series,
                            RandomWalkSource(args.seed, w.length), &pool,
                            &setup_s, &build_s);
  const int64_t oracle_start = NowNs();

  ReadCtx ctx;
  ctx.db = inst->db.get();
  ctx.port = inst->port();
  ctx.pool = &pool;
  ctx.epsilon =
      (paper ? 0.12 : 0.02) * std::sqrt(static_cast<double>(w.length));
  ctx.tmavg = MovingAverageSpec(w.length);
  ctx.corrupt_op = args.corrupt_op;
  ctx.corrupt_oracle = args.corrupt_oracle;
  Rng rng(args.seed ^ 0x0D15EA5Eull);
  for (size_t i = 0; i < count; ++i) {
    ReadOp op;
    op.slot = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.ids.size()) - 1));
    if (paper) {
      op.knn = i % 3 == 2;
      op.tmavg = i % 3 == 1;
    } else {
      op.knn = i % 2 == 0;
    }
    op.traced = rng.UniformInt(0, kTraceShare - 1) == 0;
    ctx.ops.push_back(op);
  }
  // The oracle: a seeded sample of range ops, answered by the sequential
  // scan (what Database::ScanRangeQuery runs) before any clock starts,
  // one scan per thread.
  for (size_t s = 0; s < w.oracle_samples; ++s) {
    size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(count) - 1));
    while (ctx.ops[i].knn) i = (i + 1) % count;
    ctx.expected[{ctx.ops[i].slot, ctx.ops[i].tmavg}];
  }
  {
    std::vector<std::thread> scans;
    for (auto& [key, answer] : ctx.expected) {
      scans.emplace_back([&ctx, &pool, key = key, out = &answer] {
        MustOk(SeqScanRangeQuery(*ctx.db->relation(), ctx.db->extractor(),
                                 pool.values[key.first], ctx.epsilon,
                                 key.second ? ctx.tmavg : ctx.plain,
                                 /*early_abandon=*/true, out, nullptr),
               "SeqScanRangeQuery");
      });
    }
    for (std::thread& t : scans) t.join();
  }
  for (ReadOp& op : ctx.ops) {
    op.oracle = !op.knn && ctx.expected.count({op.slot, op.tmavg}) > 0;
  }
  size_t oracle_ops = 0;
  for (const ReadOp& op : ctx.ops) oracle_ops += op.oracle ? 1 : 0;
  std::printf("workload %s: %zu x %zu random walks, %zu connections, "
              "closed loop, %zu ops, seed %llu, durability none, data in %s\n",
              w.name, series, w.length, w.connections, count,
              static_cast<unsigned long long>(args.seed),
              args.data_dir.c_str());
  std::printf("  index %llu pages against %zu pool frames; %zu range ops "
              "checked against the scan\n",
              static_cast<unsigned long long>(
                  inst->db->index()->pool()->file()->num_pages()),
              inst->db->options().buffer_pool_frames, oracle_ops);
  std::printf("  wall: %d set-ups %.2f s, scan oracle %.2f s\n", w.setups,
              NsToMs(oracle_start - setup_start) / 1e3,
              NsToMs(NowNs() - oracle_start) / 1e3);

  Tally tally;
  // Warm-up: fill the buffer pool and the server's lazy state untimed.
  tally.Merge(RunReadPhase(ctx, 0, std::min(count, kWarmupOps * w.connections),
                           w.connections, false)
                  .tally);
  if (!args.trace) {
    ReadPhase run = RunReadPhase(ctx, 0, count, w.connections, false);
    tally.Merge(run.tally);
    const double qps = static_cast<double>(count) / run.wall_s;
    std::printf("  wall: measured %.2f s\n", run.wall_s);
    std::printf("  query_p50_ms %.4f  query_p99_ms %.4f  query_qps %.1f\n",
                Median(run.latency_ms), Percentile(run.latency_ms, 0.99), qps);
    if (paper) {
      std::printf("  plain range p50 %.4f ms, Tmavg20 range p50 %.4f ms\n",
                  Median(run.plain_ms), Median(run.tmavg_ms));
    }
    return Report(tally, EndToEnd(setup_s, run.latency_ms, qps, inst.get()));
  }

  LayerReport report;
  ReadPhase untraced = RunReadPhase(ctx, 0, count, w.connections, false);
  tally.Merge(untraced.tally);
  const ScalingProbe probe =
      ProbeScaling(ctx, std::min(count, Scaled(kScalingOps, args.scale, 64)),
                   &tally);
  obs::ArmTracing();
  const int64_t t0 = NowNs();
  ReadPhase traced = RunReadPhase(ctx, 0, count, w.connections, true);
  obs::DisarmTracing();
  tally.Merge(traced.tally);
  ReportReadLayers(traced.layers, traced.latency_ms, probe,
                   Median(untraced.latency_ms), &report);
  if (paper) {
    report.Set("transform.gap_ms",
               Median(traced.tmavg_ms) - Median(traced.plain_ms));
  } else {
    report.NotMeasured("transform.gap_ms",
                       "lookup issues no transformed queries");
  }
  SpanRecorder extract_rec;
  report.Set("core.extract_us",
             ExtractMicros(*inst->db, pool.values, &extract_rec, 0, -1));
  report.Set("core.build_index_s", Median(build_s));
  report.Set("relation.bytes_written_per_series",
             static_cast<double>(inst->bytes_written_at_load) /
                 static_cast<double>(series));
  report.NotMeasuredWrites();
  std::vector<const SpanRecorder*> recs;
  for (const auto& r : traced.recorders) recs.push_back(r.get());
  recs.push_back(&extract_rec);
  PrintSpanTable(SummarizeSpans(
      recs, t0,
      args.out_dir.empty() ? "" : args.out_dir + "/spans_" + w.name + ".csv"));
  return Report(tally, report.Finish());
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

struct Cycle {
  uint64_t batch_seed = 0;
  uint16_t knn_index[kIngestQueries / 2] = {};  // series of the new batch
  uint32_t range_slot[kIngestQueries / 2] = {}; // base series (pool slot)
  bool reindex = false;
};

void MakeBatch(uint64_t batch_seed, size_t cycle, size_t length,
               std::vector<std::string>* names, std::vector<RealVec>* values) {
  names->clear();
  values->clear();
  Rng rng(batch_seed);
  for (size_t i = 0; i < kIngestBatch; ++i) {
    names->push_back(SeriesName("n", cycle * kIngestBatch + i));
    values->push_back(workload::RandomWalkSeries(&rng, length));
  }
}

/// What one replay of the ingest op list produced.
struct IngestPass {
  double total_ms = 0.0;  ///< INSERT, query-phase and REINDEX time
  std::vector<double> insert_ms, query_ms, reindex_ms;  // untraced
  uint64_t written = 0;  ///< relation bytes the INSERTs wrote
  // Traced only.
  std::vector<double> insert_client_ms, insert_core_ms, extract_us,
      reindex_bytes;
  ReadLayers layers;
  std::vector<SpanRecorder> recs;  ///< one per connection
  int64_t t0 = 0;
};

/// Replays `plan` on a freshly set-up `inst`. INSERT and REINDEX go
/// through connection 0; each cycle's queries then run over all
/// `conns` connections at once, closed loop, and the next INSERT waits
/// until they are all answered, so the database a query sees is fixed
/// by its place in the list. Untraced, only client calls are on the
/// clock (a query phase counts by its wall time). Traced, every query
/// runs TraceReadOp, even cycles INSERT through the client and odd ones
/// in-process (both leave byte-identical relations), and REINDEX runs
/// in-process.
IngestPass ReplayIngest(const Args& args, Instance* inst,
                        const std::vector<Cycle>& plan, const QueryPool& pool,
                        size_t length, size_t conns, bool traced,
                        bool* corrupt_reindex, Tally* tally) {
  Database* db = inst->db.get();
  const uint64_t base = db->size();
  QueryPool fresh;  // the current batch, as a pool for kNN read ops
  // The queries of a cycle are ordinary read ops: kNN k=1 of a series of
  // the new batch (must return it) and ranges of base series (must
  // contain them), alternating.
  ReadCtx knn_ctx, range_ctx;
  for (ReadCtx* ctx : {&knn_ctx, &range_ctx}) {
    ctx->db = db;
    ctx->port = inst->port();
    ctx->epsilon = 0.02 * std::sqrt(static_cast<double>(length));
    ctx->corrupt_op = args.corrupt_op;
  }
  knn_ctx.pool = &fresh;
  range_ctx.pool = &pool;
  std::vector<std::unique_ptr<server::Client>> clients;
  for (size_t t = 0; t < conns; ++t) clients.push_back(Connect(inst->port()));
  Crew crew(conns);
  std::vector<Tally> tallies(conns);
  std::vector<ReadLayers> layers(conns);
  IngestPass pass;
  pass.recs.resize(conns);
  SpanRecorder& rec = pass.recs[0];
  server::Client* client = clients[0].get();
  std::vector<std::pair<SeriesId, RealVec>> since_reindex;
  std::vector<std::string> names;
  std::vector<RealVec> values;
  std::vector<double> phase_ms(kIngestQueries);
  uint64_t g = 0;  // op index
  pass.t0 = NowNs();
  for (size_t c = 0; c < plan.size(); ++c) {
    MakeBatch(plan[c].batch_seed, c, length, &names, &values);
    const SeriesId want_base = base + c * kIngestBatch;
    const uint64_t written_before =
        db->StatsSnapshot().relation_bytes_written;
    ++tally->attempted;
    Result<std::vector<SeriesId>> ids = Status::Internal("not run");
    const uint64_t op = g++;
    if (traced) {
      const int32_t root = rec.Begin("op", op, -1);
      pass.extract_us.push_back(ExtractMicros(*db, values, &rec, op, root));
      const bool in_process = c % 2 == 1;
      const int32_t s =
          rec.Begin(in_process ? "core.insert" : "client.insert", op, root);
      ids = in_process ? db->InsertBatch(names, values)
                       : client->InsertBatch(names, values);
      (in_process ? pass.insert_core_ms : pass.insert_client_ms)
          .push_back(rec.End(s));
      rec.End(root);
    } else {
      const int64_t t = NowNs();
      ids = client->InsertBatch(names, values);
      pass.insert_ms.push_back(NsToMs(NowNs() - t));
      pass.total_ms += pass.insert_ms.back();
    }
    pass.written +=
        db->StatsSnapshot().relation_bytes_written - written_before;
    if (!ids.ok()) {
      tally->Fail("insert " + std::to_string(c) + ": " +
                  ids.status().ToString());
      continue;
    }
    if (ids->size() != kIngestBatch || ids->front() != want_base ||
        ids->back() != want_base + kIngestBatch - 1) {
      tally->Fail("insert " + std::to_string(c) + ": unexpected ids");
      continue;
    }
    fresh.ids = *ids;
    fresh.values = values;
    since_reindex.emplace_back(fresh.ids[plan[c].knn_index[0]],
                               values[plan[c].knn_index[0]]);
    const uint64_t first_query = g;
    g += kIngestQueries;
    const int64_t phase_start = NowNs();
    crew.Run(kIngestQueries, [&](size_t t, size_t j) {
      ReadOp rop;
      rop.knn = j % 2 == 0;
      rop.traced = true;
      rop.slot = rop.knn ? plan[c].knn_index[j / 2] : plan[c].range_slot[j / 2];
      const ReadCtx& ctx = rop.knn ? knn_ctx : range_ctx;
      const uint64_t qop = first_query + j;
      if (traced) {
        TraceReadOp(ctx, clients[t].get(), qop, rop, &pass.recs[t],
                    &layers[t], &tallies[t]);
        return;
      }
      const int64_t start = NowNs();
      auto answer = ClientRead(ctx, clients[t].get(), rop);
      phase_ms[j] = NsToMs(NowNs() - start);
      ++tallies[t].attempted;
      CheckRead(ctx, qop, rop, std::move(answer), &tallies[t]);
    });
    if (!traced) {
      pass.total_ms += NsToMs(NowNs() - phase_start);
      pass.query_ms.insert(pass.query_ms.end(), phase_ms.begin(),
                           phase_ms.end());
    }
    if (!plan[c].reindex) continue;
    ++tally->attempted;
    const uint64_t rop = g++;
    if (traced) {
      const uint64_t read_before = db->StatsSnapshot().relation_bytes_read;
      const int32_t s = rec.Begin("core.reindex", rop, -1);
      auto epoch = db->Reindex();
      pass.reindex_ms.push_back(rec.End(s));
      pass.reindex_bytes.push_back(
          static_cast<double>(db->StatsSnapshot().relation_bytes_read -
                              read_before) /
          static_cast<double>(db->size()));
      if (!epoch.ok()) tally->Fail("reindex: " + epoch.status().ToString());
    } else {
      const int64_t t = NowNs();
      auto epoch = client->Reindex();
      pass.reindex_ms.push_back(NsToMs(NowNs() - t));
      pass.total_ms += pass.reindex_ms.back();
      if (!epoch.ok()) tally->Fail("reindex: " + epoch.status().ToString());
    }
    // A REINDEX's temporary allocations stay in the malloc arena of
    // whichever tsqd thread served it; return them to the kernel, so that
    // peak_rss_mb does not depend on which threads served earlier ones
    // (see ~Instance).
    malloc_trim(0);
    // Untimed: every batch since the last REINDEX is still found.
    for (const auto& [id, v] : since_reindex) {
      ++tally->attempted;
      auto m = client->Knn(v, 1);
      if (*corrupt_reindex && m.ok() && !m->empty()) {
        (*m)[0].id ^= 1;
        *corrupt_reindex = false;
      }
      if (!m.ok() || m->size() != 1 || (*m)[0].id != id) {
        tally->Fail("series " + std::to_string(id) + " lost after REINDEX");
      }
    }
    since_reindex.clear();
  }
  for (size_t t = 0; t < conns; ++t) {
    tally->Merge(tallies[t]);
    pass.layers.Merge(layers[t]);
  }
  return pass;
}

int RunIngest(const Args& args, const Workload& w) {
  const size_t series = Scaled(static_cast<double>(w.series), args.scale, 512);
  const size_t wanted =
      Scaled(w.ops_per_second * args.seconds, args.scale, 1);
  const size_t cycles = std::max(
      kReindexEvery, std::min(wanted, kIngestCycles) / kReindexEvery *
                         kReindexEvery);
  const size_t replays = std::max<size_t>(1, wanted / cycles);
  QueryPool pool = MakeQueryPool(args.seed, series);
  std::vector<double> setup_s, build_s;
  auto inst = SetUpRepeated(args, w.setups, series,
                            RandomWalkSource(args.seed, w.length), &pool,
                            &setup_s, &build_s);

  Rng rng(args.seed ^ 0x1A6E57ull);
  std::vector<Cycle> plan(cycles);
  for (size_t c = 0; c < cycles; ++c) {
    plan[c].batch_seed = rng.NextU64();
    for (size_t j = 0; j < kIngestQueries / 2; ++j) {
      plan[c].knn_index[j] =
          static_cast<uint16_t>(rng.UniformInt(0, kIngestBatch - 1));
      plan[c].range_slot[j] = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.ids.size()) - 1));
    }
    plan[c].reindex = c % kReindexEvery == kReindexEvery - 1;
  }
  std::printf("workload ingest: base %zu x %zu random walks, %zu cycles of "
              "INSERT %zu + %zu queries, REINDEX every %zu cycles, replayed "
              "%zu times, queries over %zu connections, closed loop, seed "
              "%llu, durability none, data in %s\n",
              series, w.length, cycles, kIngestBatch, kIngestQueries,
              kReindexEvery, replays, w.connections,
              static_cast<unsigned long long>(args.seed),
              args.data_dir.c_str());

  // Each replay after the first starts from a fresh set-up of the base,
  // whose time joins the set-up sample.
  auto fresh_instance = [&] {
    inst.reset();
    inst = SetUp(args.data_dir + "/db", series,
                 RandomWalkSource(args.seed, w.length), nullptr);
    setup_s.push_back(inst->setup_s);
  };
  Tally tally;
  bool corrupt_reindex = args.corrupt_reindex;
  std::vector<double> query_ms, insert_ms, reindex_ms;
  double total_ms = 0.0;
  for (size_t r = 0; r < replays; ++r) {
    if (r > 0) fresh_instance();
    const IngestPass run =
        ReplayIngest(args, inst.get(), plan, pool, w.length, w.connections,
                     false, &corrupt_reindex, &tally);
    query_ms.insert(query_ms.end(), run.query_ms.begin(), run.query_ms.end());
    insert_ms.insert(insert_ms.end(), run.insert_ms.begin(),
                     run.insert_ms.end());
    reindex_ms.insert(reindex_ms.end(), run.reindex_ms.begin(),
                      run.reindex_ms.end());
    total_ms += run.total_ms;
  }
  const double inserted = static_cast<double>(cycles * kIngestBatch);
  if (!args.trace) {
    const double series_per_s =
        inserted * static_cast<double>(replays) / (total_ms / 1e3);
    std::printf("  query_p50_ms %.4f  query_p90_ms %.4f  insert_p50_ms %.4f  "
                "insert_p90_ms %.4f  reindex_p50_ms %.2f  "
                "ingest_series_per_s %.1f\n",
                Median(query_ms), Percentile(query_ms, 0.9),
                Median(insert_ms), Percentile(insert_ms, 0.9),
                Median(reindex_ms), series_per_s);
    return Report(tally,
                  EndToEnd(setup_s, query_ms, series_per_s, inst.get()));
  }

  // One traced replay; the untraced replays above give obs.trace_overhead
  // its denominator.
  fresh_instance();
  obs::ArmTracing();
  const IngestPass traced =
      ReplayIngest(args, inst.get(), plan, pool, w.length, w.connections,
                   true, &corrupt_reindex, &tally);
  obs::DisarmTracing();

  // Scaling and counter probe over base-series queries on the final
  // database (the ingest op list's queries depend on their cycle).
  ReadCtx probe_ctx;
  probe_ctx.db = inst->db.get();
  probe_ctx.port = inst->port();
  probe_ctx.pool = &pool;
  probe_ctx.epsilon = 0.02 * std::sqrt(static_cast<double>(w.length));
  const size_t probe_count = Scaled(kScalingOps, args.scale, 64);
  for (size_t i = 0; i < probe_count; ++i) {
    ReadOp op;
    op.knn = i % 2 == 0;
    op.slot = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.ids.size()) - 1));
    probe_ctx.ops.push_back(op);
  }
  const ScalingProbe probe = ProbeScaling(probe_ctx, probe_count, &tally);
  LayerReport report;
  ReportReadLayers(traced.layers, traced.layers.client_ms, probe,
                   Median(query_ms), &report);
  report.Set("server.insert_wire_ms", Median(traced.insert_client_ms) -
                                          Median(traced.insert_core_ms));
  report.Set("core.insert_ms", Median(traced.insert_core_ms));
  report.Set("core.extract_us", Median(traced.extract_us));
  report.Set("core.build_index_s", Median(build_s));
  report.Set("core.reindex_ms", Median(traced.reindex_ms));
  report.Set("core.reindex_bytes_per_series", Median(traced.reindex_bytes));
  report.Set("relation.bytes_written_per_series",
             static_cast<double>(traced.written) / inserted);
  report.NotMeasured("transform.gap_ms",
                     "ingest issues no transformed queries");
  std::vector<const SpanRecorder*> recs;
  for (const SpanRecorder& r : traced.recs) recs.push_back(&r);
  PrintSpanTable(SummarizeSpans(
      recs, traced.t0,
      args.out_dir.empty() ? "" : args.out_dir + "/spans_ingest.csv"));
  return Report(tally, report.Finish());
}

// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--scale") {
      args.scale = std::max<size_t>(1, std::stoull(value));
    } else if (flag == "--corrupt") {
      if (value.rfind("op:", 0) == 0) {
        args.corrupt_op = std::stoll(value.substr(3));
      } else if (value == "oracle") {
        args.corrupt_oracle = true;
      } else if (value == "reindex") {
        args.corrupt_reindex = true;
      } else {
        Die("unknown --corrupt " + value);
      }
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.data_dir.empty()) Die("--data-dir is required");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

/// Puts `dir` on a memory-backed file system, as the noise rules ask,
/// without writing outside it: the process moves into a mount namespace
/// of its own, so the tmpfs mounted on `dir` is seen by no other process
/// and goes away when this one exits. Must run before any thread starts.
/// Returns "" on success, else why the files stay on the checkout's disk.
std::string MountMemoryDir(const std::string& dir) {
  auto failed = [](const char* what) {
    return std::string(what) + ": " + std::strerror(errno);
  };
  if (unshare(CLONE_NEWNS) != 0) return failed("unshare");
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return failed("mount --make-rprivate /");
  }
  if (mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
            "size=2g,mode=0700") != 0) {
    return failed("mount tmpfs");
  }
  return "";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    fs::create_directories(args.data_dir);
    if (!args.out_dir.empty()) fs::create_directories(args.out_dir);
    const std::string refused = MountMemoryDir(args.data_dir);
    std::printf("data directory on %s\n",
                refused.empty() ? "a private tmpfs"
                                : ("disk (tmpfs refused: " + refused + ")")
                                      .c_str());
    const std::string name = w.name;
    if (name == "ingest") return RunIngest(args, w);
    return RunReadWorkload(args, w);
  }
  Die("unknown workload '" + args.workload + "'");
}

}  // namespace
}  // namespace perfbench
}  // namespace tsq

int main(int argc, char** argv) { return tsq::perfbench::Main(argc, argv); }
