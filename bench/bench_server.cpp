// Copyright (c) 2026 The tsq Authors.
//
// tsqd front-end throughput through the full network stack — frame
// decode, admission, execution pool, reply encode, loopback TCP — for
// connections x pollers sweeps, plus the in-process RunBatch baseline so
// the wire overhead is visible. Two traffic shapes:
//   * pipelined: each connection is a raw-socket driver that writes a
//     stream of single-query frames back-to-back (no request/reply
//     lockstep), so the poller threads see many frames per recv;
//   * closed loop: each connection is a server::Client with exactly one
//     range query in flight, the shape of perfbench's clients, where
//     every reply wakes a poller before the next request can leave.
// Not a paper figure; it measures the server subsystem the same way
// bench_batch_throughput measures the engine.
//
// Drops BENCH_server.json (schema v3: rows keyed by mode x pollers x
// connections; every row carries its five timed repetitions, wall_ms
// their median) next to the console tables. CI's bench-perf job
// archives BENCH_*.json per run, so server perf is tracked PR over PR.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

/// Blocking loopback connect; aborts on failure (benchmarks have no
/// error consumers).
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  TSQ_CHECK_MSG(fd >= 0, "socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  TSQ_CHECK_MSG(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "connect failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Sends the whole pre-encoded frame stream, then reads until `count`
/// replies have decoded. The server buffers replies it cannot flush yet,
/// so write-then-read cannot deadlock.
void DrivePipelined(uint16_t port, const serde::Buffer& stream,
                    size_t count) {
  const int fd = RawConnect(port);
  size_t sent = 0;
  while (sent < stream.size()) {
    const ssize_t n = ::send(fd, stream.data() + sent, stream.size() - sent,
                             MSG_NOSIGNAL);
    TSQ_CHECK_MSG(n > 0, "send failed");
    sent += static_cast<size_t>(n);
  }
  server::FrameReader reader;
  size_t replies = 0;
  uint8_t buf[64 * 1024];
  while (replies < count) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    TSQ_CHECK_MSG(n > 0, "recv failed before all replies arrived");
    Status status = reader.Feed(buf, static_cast<size_t>(n),
                                [&replies](const uint8_t*, size_t) {
                                  ++replies;
                                  return Status::OK();
                                });
    TSQ_CHECK_MSG(status.ok(), "reply stream corrupt: %s",
                  status.ToString().c_str());
  }
  ::close(fd);
}

void Run() {
  bench::Banner(
      "tsqd: pipelined frames/sec vs connections x pollers",
      "Raw-socket drivers stream single-query range frames back-to-back\n"
      "over TCP loopback against one tsqd. Expected shape: more pollers\n"
      "spread the socket work across threads; on a single hardware thread\n"
      "the sweep mostly measures coordination overhead. The in-process\n"
      "baseline and each cell run once untimed, then five timed times:\n"
      "wall ms and frames/s are the median run, latencies the server's\n"
      "over the timed runs.");
  std::printf("  hardware threads on this host: %u\n\n",
              std::thread::hardware_concurrency());

  const size_t kNumSeries = bench::Scaled(1000, 64);
  const size_t kLength = 128;
  const size_t kFramesPerConnection = bench::Scaled(256, 16);

  bench::ScratchDir scratch("bench_server");
  auto data =
      workload::MakeRandomWalkDataset(20260729, kNumSeries, kLength);
  auto db = bench::BuildDatabase(scratch.path(), "served", data);

  auto make_query = [&](size_t i, uint64_t salt) {
    engine::BatchQuery q;
    q.kind = engine::BatchQueryKind::kRange;
    q.query = data[(i * 13 + salt * 31) % kNumSeries].values();
    q.epsilon = (i % 2 == 0) ? 1.0 : 4.0;
    return q;
  };
  // Per-connection pre-encoded frame stream (one query per frame, ids
  // dense) so the timed region is pure wire + server work.
  auto make_stream = [&](uint64_t salt) {
    serde::Buffer stream;
    for (size_t i = 0; i < kFramesPerConnection; ++i) {
      server::Request request;
      request.verb = server::Verb::kQuery;
      request.id = i + 1;
      request.queries.push_back(make_query(i, salt));
      server::EncodeRequest(request, &stream);
    }
    return stream;
  };

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("server");
  doc["schema_version"] = bench::Json::Int(3);
  bench::Json host = bench::Json::Object();
  host["hardware_threads"] =
      bench::Json::Int(std::thread::hardware_concurrency());
  host["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["host"] = std::move(host);
  bench::Json workload_json = bench::Json::Object();
  workload_json["series"] = bench::Json::Int(kNumSeries);
  workload_json["length"] = bench::Json::Int(kLength);
  workload_json["frames_per_connection"] =
      bench::Json::Int(kFramesPerConnection);
  doc["workload"] = std::move(workload_json);
  bench::Json rows = bench::Json::Array();

  // In-process baseline: the same queries as one RunBatch, no network.
  {
    std::vector<engine::BatchQuery> batch;
    for (size_t i = 0; i < kFramesPerConnection; ++i) {
      batch.push_back(make_query(i, 0));
    }
    const bench::CellTiming timing = bench::RepeatCell([&] {
      Stopwatch wall;
      db->RunBatch(batch, 0);
      return wall.ElapsedMillis();
    });
    const double qps =
        1000.0 * static_cast<double>(batch.size()) / timing.median_ms;
    std::printf("  in-process baseline: %.2f ms / batch (%s), %.0f q/s\n\n",
                timing.median_ms, timing.Spread(2).c_str(), qps);
    bench::Json row = bench::Json::Object();
    row["mode"] = bench::Json::Str("in_process");
    row["pollers"] = bench::Json::Int(0);
    row["connections"] = bench::Json::Int(0);
    timing.AddTo(&row);
    row["frames_per_sec"] = bench::Json::Num(qps);
    rows.Append(std::move(row));
  }

  bench::Table table({"pollers", "conns", "wall ms", "min-max", "frames/s",
                      "p50us", "p99us", "busy", "backoffs"});
  // Every frame in the sweep is a kQuery, so the server-side per-verb
  // latency histogram for verb="query" captures exactly this workload.
  // Server::Start arms the metrics registry, so it records for free;
  // snapshot deltas isolate each cell of the sweep.
  obs::Histogram* const latency =
      obs::RegisterHistogram("tsqd_request_latency_us", "verb=\"query\"");
  for (const size_t pollers : {size_t{1}, size_t{2}, size_t{4}}) {
    server::ServerOptions options;
    options.pollers = pollers;
    // Pipelining intentionally floods admission; size the bound so the
    // sweep measures execution, not BUSY bouncing.
    options.max_inflight = 16 * kFramesPerConnection;
    auto started = server::Server::Start(db.get(), options);
    TSQ_CHECK_MSG(started.ok(), "server start failed: %s",
                  started.status().ToString().c_str());
    auto server = std::move(*started);

    for (const size_t connections :
         {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      // The latency histogram's delta covers the timed runs only.
      obs::Histogram::Snapshot before;
      int run = 0;
      const bench::CellTiming timing = bench::RepeatCell([&] {
        if (run++ == 1) before = latency->Snap();
        Stopwatch wall;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < connections; ++c) {
          threads.emplace_back([&, c] {
            DrivePipelined(server->port(), make_stream(c),
                           kFramesPerConnection);
          });
        }
        for (std::thread& t : threads) t.join();
        return wall.ElapsedMillis();
      });
      const obs::Histogram::Snapshot delta =
          obs::SnapshotDelta(latency->Snap(), before);
      const double p50 = obs::SnapshotQuantileMicros(delta, 0.5);
      const double p99 = obs::SnapshotQuantileMicros(delta, 0.99);
      const double total_frames =
          static_cast<double>(connections * kFramesPerConnection);
      const double fps = 1000.0 * total_frames / timing.median_ms;
      const server::ServerCounters counters = server->counters();
      table.AddRow({std::to_string(pollers), std::to_string(connections),
                    bench::Table::Num(timing.median_ms, 2), timing.Spread(2),
                    bench::Table::Num(fps, 0), bench::Table::Num(p50, 0),
                    bench::Table::Num(p99, 0),
                    std::to_string(counters.busy_rejected),
                    std::to_string(counters.accept_backoffs)});
      bench::Json row = bench::Json::Object();
      row["mode"] = bench::Json::Str("loopback_pipelined");
      row["pollers"] = bench::Json::Int(pollers);
      row["connections"] = bench::Json::Int(connections);
      timing.AddTo(&row);
      row["frames_per_sec"] = bench::Json::Num(fps);
      row["latency_p50_us"] = bench::Json::Num(p50);
      row["latency_p99_us"] = bench::Json::Num(p99);
      row["busy_rejected"] = bench::Json::Int(counters.busy_rejected);
      row["accept_backoffs"] = bench::Json::Int(counters.accept_backoffs);
      rows.Append(std::move(row));
    }
    server->Stop();
  }
  table.Print();

  std::printf("\n");
  bench::Banner(
      "tsqd: closed-loop queries/sec vs connections x pollers",
      "One server::Client per connection keeps one range query in flight\n"
      "and sends the next when its reply lands. Each cell runs once\n"
      "untimed, then five timed times: throughput and wall ms are the\n"
      "median run, latencies are client round trips over the timed runs.");
  bench::Table closed_table({"pollers", "conns", "wall ms", "min-max",
                             "queries/s", "p50us", "p99us"});
  for (const size_t pollers : {size_t{1}, size_t{2}, size_t{4}}) {
    server::ServerOptions options;
    options.pollers = pollers;
    auto started = server::Server::Start(db.get(), options);
    TSQ_CHECK_MSG(started.ok(), "server start failed: %s",
                  started.status().ToString().c_str());
    auto server = std::move(*started);

    for (const size_t connections : {size_t{1}, size_t{2}, size_t{4}}) {
      std::vector<std::unique_ptr<server::Client>> clients;
      for (size_t c = 0; c < connections; ++c) {
        auto client = server::Client::Connect("127.0.0.1", server->port());
        TSQ_CHECK_MSG(client.ok(), "connect failed: %s",
                      client.status().ToString().c_str());
        clients.push_back(std::move(*client));
      }
      // Round-trip latencies of the timed runs (the first run warms up).
      std::vector<std::vector<double>> latencies_us(connections);
      int run = 0;
      const bench::CellTiming timing = bench::RepeatCell([&] {
        const bool timed = run++ > 0;
        Stopwatch wall;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < connections; ++c) {
          threads.emplace_back([&, c] {
            for (size_t i = 0; i < kFramesPerConnection; ++i) {
              const engine::BatchQuery q = make_query(i, c);
              Stopwatch round_trip;
              auto matches = clients[c]->Range(q.query, q.epsilon);
              TSQ_CHECK_MSG(matches.ok(), "closed-loop query failed: %s",
                            matches.status().ToString().c_str());
              if (timed) {
                latencies_us[c].push_back(
                    static_cast<double>(round_trip.ElapsedNanos()) / 1e3);
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
        return wall.ElapsedMillis();
      });
      std::vector<double> all_us;
      for (const std::vector<double>& v : latencies_us) {
        all_us.insert(all_us.end(), v.begin(), v.end());
      }
      std::sort(all_us.begin(), all_us.end());
      const double p50 = all_us[all_us.size() / 2];
      const double p99 = all_us[all_us.size() * 99 / 100];
      const double qps = 1000.0 *
                         static_cast<double>(connections *
                                             kFramesPerConnection) /
                         timing.median_ms;
      closed_table.AddRow({std::to_string(pollers),
                           std::to_string(connections),
                           bench::Table::Num(timing.median_ms, 2),
                           timing.Spread(2), bench::Table::Num(qps, 0),
                           bench::Table::Num(p50, 0),
                           bench::Table::Num(p99, 0)});
      bench::Json row = bench::Json::Object();
      row["mode"] = bench::Json::Str("loopback_closed_loop");
      row["pollers"] = bench::Json::Int(pollers);
      row["connections"] = bench::Json::Int(connections);
      timing.AddTo(&row);
      row["queries_per_sec"] = bench::Json::Num(qps);
      row["client_p50_us"] = bench::Json::Num(p50);
      row["client_p99_us"] = bench::Json::Num(p99);
      rows.Append(std::move(row));
    }
    server->Stop();
  }
  closed_table.Print();

  doc["rows"] = std::move(rows);
  if (!doc.WriteFile("BENCH_server.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_server.json\n");
  } else {
    std::printf("\nwrote BENCH_server.json\n");
  }
}

}  // namespace
}  // namespace tsq

int main() {
  tsq::Run();
  return 0;
}
