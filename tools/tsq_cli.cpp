// Copyright (c) 2026 The tsq Authors.
//
// tsq command-line tool: create a similarity-searchable database from a
// CSV of time series and query it — the artifact a downstream user runs
// without writing C++.
//
// Usage:
//   tsq_cli create  --db DIR/NAME --csv FILE [--segments N] [--threads T]
//   tsq_cli import  --db DIR/NAME --csv FILE [--threads T]
//   tsq_cli info    --db DIR/NAME
//   tsq_cli range   --db DIR/NAME --series NAME --eps X
//                   [--transform mavg:20 | ewma:0.3:20 | reverse | identity]
//                   [--mode both|data]
//   tsq_cli knn     --db DIR/NAME --series NAME --k K [--transform ...]
//   tsq_cli join    --db DIR/NAME --eps X [--transform ...]
//                   [--method scan|scan-fast|index|index-transform|tree]
//   tsq_cli reindex --db DIR/NAME        (fold the delta into a fresh tree)
//   tsq_cli demo    --db DIR/NAME [--count N] [--days D]   (simulated market)
//
// Commands that open a database locally (create/import/serve/demo) accept
// --durability none|flush|batch to pick the fdatasync policy (see
// DatabaseOptions::durability); default none matches the historical
// buffered behavior.
//
// tsqd server + remote client commands (src/server/):
//   tsq_cli serve         --db DIR/NAME [--host H] [--port P] [--pollers N]
//                         [--max-inflight M]
//                         [--merge-interval-ms MS] [--merge-min-delta N]
//   tsq_cli remote-ping   [--host H] [--port P]
//   tsq_cli remote-stats  [--host H] [--port P]
//   tsq_cli remote-metrics [--host H] [--port P]  (Prometheus exposition)
//   tsq_cli remote-import [--host H] [--port P] --csv FILE
//   tsq_cli remote-range  [--host H] [--port P] --csv FILE --series NAME
//                         --eps X [--transform T] [--mode both|data]
//   tsq_cli remote-knn    [--host H] [--port P] --csv FILE --series NAME
//                         --k K [--transform T] [--epsilon E] [--probes N]
//                         (approximate kNN knobs)
//   tsq_cli remote-join   [--host H] [--port P] --eps X [--transform T]
//   tsq_cli remote-reindex [--host H] [--port P]
//   tsq_cli remote-flush  [--host H] [--port P]   (durability barrier)
//   tsq_cli remote-repair [--host H] [--port P]   (lift read-only state)
//
// --db takes "directory/name"; files NAME.rel / NAME.idx are stored in the
// directory. --series names a stored series to use as the query point; the
// remote query commands read it from a local --csv file instead (the wire
// protocol ships query values, not names). Default remote endpoint:
// 127.0.0.1:4741. `serve` honors TSQ_LOG_LEVEL (debug|info|warn|error|off).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <sstream>
#include <thread>
#include <vector>

#include "tsq.h"
#include "workload/csv.h"

namespace {

using namespace tsq;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const char* Get(const std::string& key) const {
    auto it = options.find(key);
    return it == options.end() ? nullptr : it->second.c_str();
  }
  std::string GetOr(const std::string& key, const std::string& fallback) const {
    const char* v = Get(key);
    return v == nullptr ? fallback : v;
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tsq_cli create --db DIR/NAME --csv FILE [--segments N] "
      "[--threads T] [--durability D]\n"
      "  tsq_cli import --db DIR/NAME --csv FILE [--threads T] "
      "[--durability D]\n"
      "  tsq_cli info   --db DIR/NAME\n"
      "  tsq_cli range  --db DIR/NAME --series NAME --eps X [--transform T] "
      "[--mode both|data]\n"
      "  tsq_cli knn    --db DIR/NAME --series NAME --k K [--transform T]\n"
      "  tsq_cli join   --db DIR/NAME --eps X [--transform T] [--method M]\n"
      "  tsq_cli reindex --db DIR/NAME\n"
      "  tsq_cli demo   --db DIR/NAME [--count N] [--days D]\n"
      "  tsq_cli serve  --db DIR/NAME [--host H] [--port P] [--pollers N] "
      "[--max-inflight M] "
      "[--merge-interval-ms MS] [--merge-min-delta N] [--durability D]\n"
      "  tsq_cli remote-ping|remote-stats|remote-metrics [--host H] "
      "[--port P]\n"
      "  tsq_cli remote-import [--host H] [--port P] --csv FILE\n"
      "  tsq_cli remote-range  [--host H] [--port P] --csv FILE --series NAME "
      "--eps X [--transform T] [--mode both|data]\n"
      "  tsq_cli remote-knn    [--host H] [--port P] --csv FILE --series NAME "
      "--k K [--transform T] [--epsilon E] [--probes N]\n"
      "  tsq_cli remote-join   [--host H] [--port P] --eps X [--transform T]\n"
      "  tsq_cli remote-reindex|remote-flush|remote-repair [--host H] "
      "[--port P]\n"
      "remote-* also take [--timeout-ms MS] (bound connect and each "
      "send/recv; default 0 = block) and [--retries N] (retry idempotent "
      "requests on BUSY/timeout with backoff; default 0)\n"
      "durability levels: none | flush | batch (fdatasync policy; "
      "default none)\n"
      "transforms: identity | mavg:W | ewma:ALPHA:W | reverse | scale:F | "
      "shift:D\n"
      "join methods: scan | scan-fast | index | index-transform | tree\n"
      "default remote endpoint: 127.0.0.1:4741\n");
  return 2;
}

constexpr uint16_t kDefaultPort = 4741;

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    out->options[argv[i] + 2] = argv[i + 1];
  }
  return true;
}

/// Splits "dir/name" into DatabaseOptions directory + name.
bool SplitDbPath(const std::string& path, DatabaseOptions* options) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    options->directory = ".";
    options->name = path;
  } else {
    options->directory = path.substr(0, slash);
    options->name = path.substr(slash + 1);
  }
  return !options->name.empty();
}

/// Applies --durability to a DatabaseOptions; true on success (including
/// the flag being absent).
bool ParseDurability(const Args& args, DatabaseOptions* options) {
  const std::string level = args.GetOr("durability", "none");
  if (level == "none") {
    options->durability = Durability::kNone;
  } else if (level == "flush") {
    options->durability = Durability::kOnFlush;
  } else if (level == "batch") {
    options->durability = Durability::kPerBatch;
  } else {
    return false;
  }
  return true;
}

/// Parses "mavg:20", "ewma:0.3:20", "reverse", "scale:2", "shift:5",
/// "identity".
Result<FeatureTransform> ParseTransform(const std::string& spec, size_t n) {
  std::vector<std::string> parts;
  std::string part;
  std::stringstream stream(spec);
  while (std::getline(stream, part, ':')) parts.push_back(part);
  if (parts.empty()) return Status::InvalidArgument("empty transform spec");
  const std::string& kind = parts[0];
  auto arg = [&parts](size_t i) { return std::stod(parts.at(i)); };
  if (kind == "identity") {
    return FeatureTransform::Spectral(transforms::Identity(n));
  }
  if (kind == "mavg" && parts.size() == 2) {
    return FeatureTransform::Spectral(
        transforms::MovingAverage(n, static_cast<size_t>(arg(1))));
  }
  if (kind == "ewma" && parts.size() == 3) {
    return FeatureTransform::Spectral(transforms::ExponentialMovingAverage(
        n, arg(1), static_cast<size_t>(arg(2))));
  }
  if (kind == "reverse") {
    return FeatureTransform::Spectral(transforms::Reverse(n));
  }
  if (kind == "scale" && parts.size() == 2) {
    return FeatureTransform::Spectral(transforms::Scale(n, arg(1)));
  }
  if (kind == "shift" && parts.size() == 2) {
    return FeatureTransform::Spectral(transforms::Shift(n, arg(1)));
  }
  return Status::InvalidArgument("unknown transform spec '" + spec + "'");
}

/// Finds a stored series by name (linear scan over the relation).
Result<SeriesRecord> FindByName(Database* db, const std::string& name) {
  SeriesRecord found;
  bool hit = false;
  Status s = db->relation()->Scan([&](const SeriesRecord& rec) {
    if (rec.name == name) {
      found = rec;
      hit = true;
      return false;
    }
    return true;
  });
  if (!s.ok()) return s;
  if (!hit) return Status::NotFound("no series named '" + name + "'");
  return found;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Splits loaded series into the parallel name/value vectors InsertBatch
/// takes.
void ToBatch(const std::vector<TimeSeries>& series,
             std::vector<std::string>* names, std::vector<RealVec>* values) {
  names->reserve(series.size());
  values->reserve(series.size());
  for (const TimeSeries& s : series) {
    names->push_back(s.name());
    values->push_back(s.values());
  }
}

int CmdCreate(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  const char* csv = args.Get("csv");
  if (db_path == nullptr || csv == nullptr || !SplitDbPath(db_path, &options)) {
    return Usage();
  }
  options.relation_segments = std::stoul(args.GetOr("segments", "4"));
  if (!ParseDurability(args, &options)) return Usage();
  const size_t threads = std::stoul(args.GetOr("threads", "0"));
  std::filesystem::create_directories(options.directory);
  auto series = workload::LoadCsv(csv);
  if (!series.ok()) return Fail(series.status());
  auto db = Database::Create(options);
  if (!db.ok()) return Fail(db.status());
  std::vector<std::string> names;
  std::vector<RealVec> values;
  ToBatch(*series, &names, &values);
  if (auto ids = (*db)->InsertBatch(names, values, threads); !ids.ok()) {
    return Fail(ids.status());
  }
  if (Status s = (*db)->BuildIndex(); !s.ok()) return Fail(s);
  if (Status s = (*db)->Flush(); !s.ok()) return Fail(s);
  std::printf("created %s/%s: %llu series of length %zu, index built\n",
              options.directory.c_str(), options.name.c_str(),
              static_cast<unsigned long long>((*db)->size()),
              (*db)->series_length());
  return 0;
}

int CmdImport(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  const char* csv = args.Get("csv");
  if (db_path == nullptr || csv == nullptr || !SplitDbPath(db_path, &options)) {
    return Usage();
  }
  if (!ParseDurability(args, &options)) return Usage();
  const size_t threads = std::stoul(args.GetOr("threads", "0"));
  auto series = workload::LoadCsv(csv);
  if (!series.ok()) return Fail(series.status());
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());
  std::vector<std::string> names;
  std::vector<RealVec> values;
  ToBatch(*series, &names, &values);
  auto ids = (*db)->InsertBatch(names, values, threads);
  if (!ids.ok()) return Fail(ids.status());
  if (ids->empty()) {
    std::printf("nothing to import from empty CSV\n");
    return 0;
  }
  if (Status s = (*db)->Flush(); !s.ok()) return Fail(s);
  std::printf("imported %zu series into %s/%s (ids %llu..%llu, %s): "
              "now %llu series\n",
              ids->size(), options.directory.c_str(), options.name.c_str(),
              static_cast<unsigned long long>(ids->front()),
              static_cast<unsigned long long>(ids->back()),
              (*db)->index_built() ? "indexed" : "no index yet",
              static_cast<unsigned long long>((*db)->size()));
  return 0;
}

int CmdDemo(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  if (db_path == nullptr || !SplitDbPath(db_path, &options)) return Usage();
  if (!ParseDurability(args, &options)) return Usage();
  std::filesystem::create_directories(options.directory);
  workload::StockMarketOptions market;
  market.num_series = std::stoul(args.GetOr("count", "1067"));
  market.length = std::stoul(args.GetOr("days", "128"));
  auto series = workload::MakeStockMarket(20260610, market);
  auto db = Database::Create(options);
  if (!db.ok()) return Fail(db.status());
  for (const TimeSeries& s : series) {
    auto id = (*db)->Insert(s.name(), s.values());
    if (!id.ok()) return Fail(id.status());
  }
  if (Status s = (*db)->BuildIndex(); !s.ok()) return Fail(s);
  if (Status s = (*db)->Flush(); !s.ok()) return Fail(s);
  std::printf(
      "created demo market %s/%s: %llu stocks x %zu days (planted SIMa/SIMb "
      "trend twins and OPPa/OPPb opposite movers)\n",
      options.directory.c_str(), options.name.c_str(),
      static_cast<unsigned long long>((*db)->size()), (*db)->series_length());
  return 0;
}

int CmdInfo(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  if (db_path == nullptr || !SplitDbPath(db_path, &options)) return Usage();
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());
  std::printf("database   %s/%s\n", options.directory.c_str(),
              options.name.c_str());
  std::printf("series     %llu x length %zu\n",
              static_cast<unsigned long long>((*db)->size()),
              (*db)->series_length());
  std::printf("index      %s\n", (*db)->index_built() ? "built" : "none");
  if ((*db)->index_built()) {
    const auto* tree = (*db)->index()->tree();
    std::printf("  dims %zu, height %u, node capacity %zu, %llu entries\n",
                tree->dims(), tree->height(), tree->node_capacity(),
                static_cast<unsigned long long>(tree->size()));
    const DatabaseStats stats = (*db)->StatsSnapshot();
    std::printf("  epoch %llu, %llu unmerged delta entries, "
                "%llu merges completed\n",
                static_cast<unsigned long long>(stats.index_epoch),
                static_cast<unsigned long long>(stats.delta_entries),
                static_cast<unsigned long long>(stats.merges_completed));
  }
  return 0;
}

int CmdReindex(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  if (db_path == nullptr || !SplitDbPath(db_path, &options)) return Usage();
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());
  const DatabaseStats before = (*db)->StatsSnapshot();
  auto epoch = (*db)->Reindex();
  if (!epoch.ok()) return Fail(epoch.status());
  if (Status s = (*db)->Flush(); !s.ok()) return Fail(s);
  std::printf("merged %llu delta entries; epoch %llu, tree %llu entries\n",
              static_cast<unsigned long long>(before.delta_entries),
              static_cast<unsigned long long>(*epoch),
              static_cast<unsigned long long>((*db)->index()->size()));
  return 0;
}

int CmdRange(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  const char* series_name = args.Get("series");
  const char* eps = args.Get("eps");
  if (db_path == nullptr || series_name == nullptr || eps == nullptr ||
      !SplitDbPath(db_path, &options)) {
    return Usage();
  }
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());
  auto query = FindByName(db->get(), series_name);
  if (!query.ok()) return Fail(query.status());

  QuerySpec spec;
  if (const char* t = args.Get("transform")) {
    auto transform = ParseTransform(t, (*db)->series_length());
    if (!transform.ok()) return Fail(transform.status());
    spec.transform = *transform;
  }
  if (args.GetOr("mode", "both") == "data") {
    spec.mode = TransformMode::kDataOnly;
  }
  auto result = engine::SingleResult((*db)->RunBatch(
      {engine::BatchQuery::Range(query->values, std::stod(eps), spec)}));
  if (!result.ok()) return Fail(result.status());
  std::printf("%zu matches:\n", result->matches.size());
  for (const Match& m : result->matches) {
    std::printf("  %-16s %.6f\n", m.name.c_str(), m.distance);
  }
  const QueryStats& stats = result->stats;
  std::printf("(%llu candidates, %llu node accesses, %.3f ms)\n",
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.nodes_visited),
              stats.elapsed_ms);
  return 0;
}

int CmdKnn(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  const char* series_name = args.Get("series");
  if (db_path == nullptr || series_name == nullptr ||
      !SplitDbPath(db_path, &options)) {
    return Usage();
  }
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());
  auto query = FindByName(db->get(), series_name);
  if (!query.ok()) return Fail(query.status());
  QuerySpec spec;
  if (const char* t = args.Get("transform")) {
    auto transform = ParseTransform(t, (*db)->series_length());
    if (!transform.ok()) return Fail(transform.status());
    spec.transform = *transform;
  }
  const size_t k = std::stoul(args.GetOr("k", "5"));
  KnnOptions knn_options;
  knn_options.epsilon = std::stod(args.GetOr("epsilon", "0"));
  knn_options.probe_budget = std::stoull(args.GetOr("probes", "0"));
  auto result = engine::SingleResult((*db)->RunBatch(
      {engine::BatchQuery::Knn(query->values, k, spec, knn_options)}));
  if (!result.ok()) return Fail(result.status());
  std::printf("%zu nearest neighbors of %s:\n", result->matches.size(),
              series_name);
  for (const Match& m : result->matches) {
    std::printf("  %-16s %.6f\n", m.name.c_str(), m.distance);
  }
  const QueryStats& qs = result->stats;
  std::printf("visited %llu, pruned %llu, %llu node accesses",
              static_cast<unsigned long long>(qs.candidates),
              static_cast<unsigned long long>(qs.pruned),
              static_cast<unsigned long long>(qs.nodes_visited));
  if (qs.approx) {
    std::printf(", max relative error %.6f (approximate)", qs.max_error);
  }
  std::printf("\n");
  return 0;
}

int CmdJoin(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  const char* eps = args.Get("eps");
  if (db_path == nullptr || eps == nullptr || !SplitDbPath(db_path, &options)) {
    return Usage();
  }
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());

  std::optional<FeatureTransform> transform;
  if (const char* t = args.Get("transform")) {
    auto parsed = ParseTransform(t, (*db)->series_length());
    if (!parsed.ok()) return Fail(parsed.status());
    transform = *parsed;
  }
  const std::string method_name = args.GetOr("method", "tree");
  JoinMethod method;
  if (method_name == "scan") {
    method = JoinMethod::kScanFull;
  } else if (method_name == "scan-fast") {
    method = JoinMethod::kScanEarlyAbandon;
  } else if (method_name == "index") {
    method = JoinMethod::kIndexPlain;
  } else if (method_name == "index-transform") {
    method = JoinMethod::kIndexTransformed;
  } else if (method_name == "tree") {
    method = JoinMethod::kTreeMatch;
  } else {
    return Usage();
  }

  QueryStats stats;
  auto pairs = (*db)->SelfJoin(std::stod(eps), method, transform, &stats);
  if (!pairs.ok()) return Fail(pairs.status());
  std::printf("%zu pairs (method %s):\n", pairs->size(), method_name.c_str());
  size_t shown = 0;
  for (const JoinPair& p : *pairs) {
    if (p.first > p.second) continue;  // print each unordered pair once
    auto a = (*db)->Get(p.first);
    auto b = (*db)->Get(p.second);
    if (!a.ok() || !b.ok()) continue;
    std::printf("  %-16s %-16s %.6f\n", a->name.c_str(), b->name.c_str(),
                p.distance);
    if (++shown >= 50) {
      std::printf("  ... (%zu more)\n", pairs->size() - shown);
      break;
    }
  }
  std::printf("(%.3f ms)\n", stats.elapsed_ms);
  return 0;
}

// ---------------------------------------------------------------------------
// tsqd server + remote client commands
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int CmdServe(const Args& args) {
  DatabaseOptions options;
  const char* db_path = args.Get("db");
  if (db_path == nullptr || !SplitDbPath(db_path, &options)) return Usage();
  Logger::ReloadFromEnv();
  // The merge cadence is a database knob: the background thread folds the
  // delta into a fresh tree whenever it holds >= merge-min-delta entries.
  options.merge_interval_ms =
      std::stoull(args.GetOr("merge-interval-ms", "0"));
  options.merge_min_delta = std::stoull(args.GetOr("merge-min-delta", "1"));
  if (!ParseDurability(args, &options)) return Usage();
  auto db = Database::Open(options);
  if (!db.ok()) return Fail(db.status());

  server::ServerOptions server_options;
  server_options.host = args.GetOr("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(
      std::stoul(args.GetOr("port", std::to_string(kDefaultPort))));
  server_options.pollers = std::stoul(args.GetOr("pollers", "0"));
  server_options.max_inflight = std::stoul(args.GetOr("max-inflight", "128"));
  auto server = server::Server::Start(db->get(), server_options);
  if (!server.ok()) return Fail(server.status());

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf(
      "tsqd serving %s/%s (%llu series) on %s:%u with %zu pollers — "
      "Ctrl-C stops\n",
      options.directory.c_str(), options.name.c_str(),
      static_cast<unsigned long long>((*db)->size()),
      server_options.host.c_str(), (*server)->port(), (*server)->pollers());
  std::fflush(stdout);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("draining and stopping tsqd\n");
  (*server)->Stop();
  const server::ServerCounters counters = (*server)->counters();
  std::printf(
      "served %llu connections (%llu closed), %llu frames, %llu requests, "
      "%llu busy-rejected, %llu protocol errors, %llu accept backoffs\n",
      static_cast<unsigned long long>(counters.connections_accepted),
      static_cast<unsigned long long>(counters.connections_closed),
      static_cast<unsigned long long>(counters.frames_received),
      static_cast<unsigned long long>(counters.requests_executed),
      static_cast<unsigned long long>(counters.busy_rejected),
      static_cast<unsigned long long>(counters.protocol_errors),
      static_cast<unsigned long long>(counters.accept_backoffs));
  if (Status s = (*db)->Flush(); !s.ok()) return Fail(s);
  return 0;
}

Result<std::unique_ptr<server::Client>> ConnectRemote(const Args& args) {
  server::ClientOptions client_options;
  const uint64_t timeout_ms = std::stoull(args.GetOr("timeout-ms", "0"));
  client_options.connect_timeout_ms = timeout_ms;
  client_options.io_timeout_ms = timeout_ms;
  client_options.max_retries =
      static_cast<uint32_t>(std::stoul(args.GetOr("retries", "0")));
  return server::Client::Connect(
      args.GetOr("host", "127.0.0.1"),
      static_cast<uint16_t>(
          std::stoul(args.GetOr("port", std::to_string(kDefaultPort)))),
      client_options);
}

int CmdRemotePing(const Args& args) {
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  if (Status s = (*client)->Ping(); !s.ok()) return Fail(s);
  std::printf("pong\n");
  return 0;
}

int CmdRemoteReindex(const Args& args) {
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  auto epoch = (*client)->Reindex();
  if (!epoch.ok()) return Fail(epoch.status());
  std::printf("reindexed; server now at epoch %llu\n",
              static_cast<unsigned long long>(*epoch));
  return 0;
}

int CmdRemoteFlush(const Args& args) {
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  if (Status s = (*client)->Flush(); !s.ok()) return Fail(s);
  std::printf("flushed\n");
  return 0;
}

int CmdRemoteRepair(const Args& args) {
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  if (Status s = (*client)->Repair(); !s.ok()) return Fail(s);
  std::printf("repaired; writes resumed\n");
  return 0;
}

int CmdRemoteStats(const Args& args) {
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  server::ServerCounters counters;
  auto stats = (*client)->Stats(&counters);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("series        %llu x length %llu\n",
              static_cast<unsigned long long>(stats->series),
              static_cast<unsigned long long>(stats->series_length));
  std::printf("index         %s\n", stats->index_built ? "built" : "none");
  if (stats->index_built) {
    std::printf("  tree        %llu entries, height %llu, dims %llu\n",
                static_cast<unsigned long long>(stats->tree_entries),
                static_cast<unsigned long long>(stats->tree_height),
                static_cast<unsigned long long>(stats->tree_dims));
    std::printf("  epoch       %llu, %llu unmerged delta entries, "
                "%llu merges completed\n",
                static_cast<unsigned long long>(stats->index_epoch),
                static_cast<unsigned long long>(stats->delta_entries),
                static_cast<unsigned long long>(stats->merges_completed));
    std::printf("  pool        %llu hits, %llu misses, %llu evictions, "
                "%llu disk reads, %llu disk writes\n",
                static_cast<unsigned long long>(stats->pool_hits),
                static_cast<unsigned long long>(stats->pool_misses),
                static_cast<unsigned long long>(stats->pool_evictions),
                static_cast<unsigned long long>(stats->pool_disk_reads),
                static_cast<unsigned long long>(stats->pool_disk_writes));
    std::printf("  traversal   %llu nodes, %llu rect transforms, "
                "%llu leaf entries tested\n",
                static_cast<unsigned long long>(stats->nodes_visited),
                static_cast<unsigned long long>(stats->rect_transforms),
                static_cast<unsigned long long>(stats->leaf_entries_tested));
  }
  std::printf("relation      %llu records read, %llu bytes read, "
              "%llu bytes written\n",
              static_cast<unsigned long long>(stats->relation_records_read),
              static_cast<unsigned long long>(stats->relation_bytes_read),
              static_cast<unsigned long long>(stats->relation_bytes_written));
  std::printf("health        %s (%llu write faults, %llu repairs)\n",
              stats->degraded ? "DEGRADED (read-only; run remote-repair)"
                              : "ok",
              static_cast<unsigned long long>(stats->write_faults),
              static_cast<unsigned long long>(stats->repairs_completed));
  std::printf("server        %llu connections accepted, %llu closed\n",
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.connections_closed));
  std::printf("  requests    %llu frames, %llu executed, %llu busy-rejected, "
              "%llu protocol errors, %llu accept backoffs\n",
              static_cast<unsigned long long>(counters.frames_received),
              static_cast<unsigned long long>(counters.requests_executed),
              static_cast<unsigned long long>(counters.busy_rejected),
              static_cast<unsigned long long>(counters.protocol_errors),
              static_cast<unsigned long long>(counters.accept_backoffs));
  return 0;
}

int CmdRemoteMetrics(const Args& args) {
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  auto text = (*client)->Metrics();
  if (!text.ok()) return Fail(text.status());
  // The exposition is already newline-terminated text; print it verbatim
  // so the output pipes straight into a scrape file.
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

int CmdRemoteImport(const Args& args) {
  const char* csv = args.Get("csv");
  if (csv == nullptr) return Usage();
  auto series = workload::LoadCsv(csv);
  if (!series.ok()) return Fail(series.status());
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  std::vector<std::string> names;
  std::vector<RealVec> values;
  ToBatch(*series, &names, &values);
  auto ids = (*client)->InsertBatch(names, values);
  if (!ids.ok()) return Fail(ids.status());
  if (ids->empty()) {
    std::printf("nothing to import from empty CSV\n");
    return 0;
  }
  std::printf("imported %zu series remotely (ids %llu..%llu)\n", ids->size(),
              static_cast<unsigned long long>(ids->front()),
              static_cast<unsigned long long>(ids->back()));
  return 0;
}

/// Loads --csv and picks the --series row as the remote query point.
Result<RealVec> LoadQuerySeries(const Args& args) {
  const char* csv = args.Get("csv");
  const char* series_name = args.Get("series");
  if (csv == nullptr || series_name == nullptr) {
    return Status::InvalidArgument("remote queries need --csv and --series");
  }
  TSQ_ASSIGN_OR_RETURN(std::vector<TimeSeries> series,
                       workload::LoadCsv(csv));
  for (const TimeSeries& s : series) {
    if (s.name() == series_name) return s.values();
  }
  return Status::NotFound("no series named '" + std::string(series_name) +
                          "' in " + csv);
}

/// Builds the QuerySpec for a remote query; the series length needed by
/// --transform comes from the server's stats.
Result<QuerySpec> MakeRemoteSpec(const Args& args, server::Client* client) {
  QuerySpec spec;
  if (const char* t = args.Get("transform")) {
    TSQ_ASSIGN_OR_RETURN(DatabaseStats stats, client->Stats());
    TSQ_ASSIGN_OR_RETURN(spec.transform,
                         ParseTransform(t, stats.series_length));
  }
  if (args.GetOr("mode", "both") == "data") {
    spec.mode = TransformMode::kDataOnly;
  }
  return spec;
}

int CmdRemoteRange(const Args& args) {
  const char* eps = args.Get("eps");
  if (eps == nullptr) return Usage();
  auto query = LoadQuerySeries(args);
  if (!query.ok()) return Fail(query.status());
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  auto spec = MakeRemoteSpec(args, client->get());
  if (!spec.ok()) return Fail(spec.status());
  auto matches = (*client)->Range(*query, std::stod(eps), *spec);
  if (!matches.ok()) return Fail(matches.status());
  std::printf("%zu matches:\n", matches->size());
  for (const Match& m : *matches) {
    std::printf("  %-16s %.6f\n", m.name.c_str(), m.distance);
  }
  return 0;
}

int CmdRemoteKnn(const Args& args) {
  auto query = LoadQuerySeries(args);
  if (!query.ok()) return Fail(query.status());
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  auto spec = MakeRemoteSpec(args, client->get());
  if (!spec.ok()) return Fail(spec.status());
  const size_t k = std::stoul(args.GetOr("k", "5"));
  KnnOptions options;
  options.epsilon = std::stod(args.GetOr("epsilon", "0"));
  options.probe_budget = std::stoull(args.GetOr("probes", "0"));
  QueryStats stats;
  auto matches = (*client)->Knn(*query, k, *spec, options, &stats);
  if (!matches.ok()) return Fail(matches.status());
  std::printf("%zu nearest neighbors:\n", matches->size());
  for (const Match& m : *matches) {
    std::printf("  %-16s %.6f\n", m.name.c_str(), m.distance);
  }
  std::printf("visited %llu, pruned %llu, %llu node accesses",
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.pruned),
              static_cast<unsigned long long>(stats.nodes_visited));
  if (stats.approx) {
    std::printf(", max relative error %.6f (approximate)", stats.max_error);
  }
  std::printf("\n");
  return 0;
}

int CmdRemoteJoin(const Args& args) {
  const char* eps = args.Get("eps");
  if (eps == nullptr) return Usage();
  auto client = ConnectRemote(args);
  if (!client.ok()) return Fail(client.status());
  std::optional<FeatureTransform> transform;
  if (const char* t = args.Get("transform")) {
    auto stats = (*client)->Stats();
    if (!stats.ok()) return Fail(stats.status());
    auto parsed = ParseTransform(t, stats->series_length);
    if (!parsed.ok()) return Fail(parsed.status());
    transform = *parsed;
  }
  auto pairs = (*client)->SelfJoin(std::stod(eps), transform);
  if (!pairs.ok()) return Fail(pairs.status());
  size_t unordered = 0;
  for (const JoinPair& p : *pairs) {
    if (p.first < p.second) ++unordered;
  }
  std::printf("%zu ordered pairs (%zu unordered); first few ids:\n",
              pairs->size(), unordered);
  size_t shown = 0;
  for (const JoinPair& p : *pairs) {
    if (p.first > p.second) continue;
    std::printf("  %llu <-> %llu  %.6f\n",
                static_cast<unsigned long long>(p.first),
                static_cast<unsigned long long>(p.second), p.distance);
    if (++shown >= 20) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "create") return CmdCreate(args);
  if (args.command == "import") return CmdImport(args);
  if (args.command == "demo") return CmdDemo(args);
  if (args.command == "info") return CmdInfo(args);
  if (args.command == "range") return CmdRange(args);
  if (args.command == "knn") return CmdKnn(args);
  if (args.command == "join") return CmdJoin(args);
  if (args.command == "reindex") return CmdReindex(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "remote-ping") return CmdRemotePing(args);
  if (args.command == "remote-stats") return CmdRemoteStats(args);
  if (args.command == "remote-metrics") return CmdRemoteMetrics(args);
  if (args.command == "remote-import") return CmdRemoteImport(args);
  if (args.command == "remote-range") return CmdRemoteRange(args);
  if (args.command == "remote-knn") return CmdRemoteKnn(args);
  if (args.command == "remote-join") return CmdRemoteJoin(args);
  if (args.command == "remote-reindex") return CmdRemoteReindex(args);
  if (args.command == "remote-flush") return CmdRemoteFlush(args);
  if (args.command == "remote-repair") return CmdRemoteRepair(args);
  return Usage();
}
