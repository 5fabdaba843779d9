// Copyright (c) 2026 The tsq Authors.
//
// The observability subsystem suite: exact-count metrics under thread
// contention (run in CI's TSan job), histogram bucket boundary
// semantics, the Prometheus exposition format golden, the bit-identical
// answers contract of per-query stage tracing, slow-query-log threshold
// gating, the METRICS verb, the stage tail and the server counters on
// the wire (round-trips plus the out-of-range rejections), and an
// end-to-end scrape through a live tsqd.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/database.h"
#include "engine/query_engine.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using engine::BatchQuery;
using engine::BatchQueryKind;
using engine::BatchResult;
using testing::Range;

// ---------------------------------------------------------------------------
// Registry: exact counts under contention.
// ---------------------------------------------------------------------------

// N threads hammer one shared counter, one shared histogram and
// per-thread labeled counters (exercising FindOrCreate registration
// races). Relaxed atomics lose no updates: totals are exact, not
// approximate. This test is part of the TSan job's ctest selection.
TEST(MetricsRegistryTest, ExactCountsUnderConcurrency) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;

  obs::Registry reg;
  obs::Counter* shared = reg.GetCounter("tsq_test_shared_total");
  obs::Histogram* hist = reg.GetHistogram("tsq_test_lat_us");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Concurrent first-touch registration of a fresh label set.
      obs::Counter* mine = reg.GetCounter(
          "tsq_test_thread_total", "t=\"" + std::to_string(t) + "\"");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared->Add();
        mine->Add();
        hist->Observe(1000 * (i % 7 + 1));
        // Re-registration must be idempotent and race-free.
        if (i % 4096 == 0) {
          ASSERT_EQ(reg.GetCounter("tsq_test_shared_total"), shared);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(shared->Value(), kThreads * kPerThread);
  EXPECT_EQ(hist->Snap().total, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("tsq_test_thread_total",
                             "t=\"" + std::to_string(t) + "\"")
                  ->Value(),
              kPerThread);
  }
}

TEST(MetricsRegistryTest, ArmGateAndGauge) {
  // The arm switch is a process-global the instrumented sites branch on;
  // flipping it must be visible immediately from this thread.
  obs::DisarmMetrics();
  EXPECT_FALSE(obs::MetricsArmed());
  obs::ArmMetrics();
  EXPECT_TRUE(obs::MetricsArmed());
  obs::DisarmMetrics();
  EXPECT_FALSE(obs::MetricsArmed());

  obs::Registry reg;
  obs::Gauge* g = reg.GetGauge("tsq_test_height");
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);
  g->Set(-7);
  EXPECT_EQ(g->Value(), -7);
}

// ---------------------------------------------------------------------------
// Histogram bucket semantics.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  obs::Histogram h;
  // Bucket i holds observations with us <= 2^i; nanoseconds round UP to
  // whole microseconds so sub-us observations land in le="1", not below
  // the scale.
  h.Observe(1);     // 1 ns -> 1 us -> bucket 0
  h.Observe(999);   // -> 1 us -> bucket 0
  h.Observe(1000);  // exactly 1 us -> bucket 0
  h.Observe(1001);  // -> 2 us -> bucket 1
  h.Observe(2000);  // exactly 2 us -> bucket 1
  h.Observe(2001);  // -> 3 us -> bucket 2
  h.Observe(4000);  // exactly 4 us -> bucket 2
  h.Observe(4001);  // -> 5 us -> bucket 3

  obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.counts[0], 3u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.total, 8u);
  EXPECT_EQ(snap.sum_nanos, 1 + 999 + 1000 + 1001 + 2000 + 2001 + 4000 + 4001);

  // The largest finite bound is 2^25 us; anything above clamps to +Inf.
  obs::Histogram big;
  const uint64_t largest_finite_nanos =
      obs::Histogram::BucketUpperMicros(obs::Histogram::kFiniteBuckets - 1) *
      1000;
  big.Observe(largest_finite_nanos);
  big.Observe(largest_finite_nanos + 1);
  big.Observe(~uint64_t{0} / 2);
  obs::Histogram::Snapshot bs = big.Snap();
  EXPECT_EQ(bs.counts[obs::Histogram::kFiniteBuckets - 1], 1u);
  EXPECT_EQ(bs.counts[obs::Histogram::kFiniteBuckets], 2u);
  EXPECT_EQ(bs.total, 3u);
}

TEST(HistogramTest, SnapshotDeltaAndQuantiles) {
  obs::Histogram h;
  EXPECT_EQ(obs::SnapshotQuantileMicros(h.Snap(), 0.5), 0.0);

  for (int i = 0; i < 100; ++i) h.Observe(1000);  // 100 x 1 us
  const obs::Histogram::Snapshot before = h.Snap();
  for (int i = 0; i < 100; ++i) h.Observe(8000);  // 100 x 8 us
  const obs::Histogram::Snapshot after = h.Snap();

  const obs::Histogram::Snapshot delta = obs::SnapshotDelta(after, before);
  EXPECT_EQ(delta.total, 100u);
  EXPECT_EQ(delta.counts[3], 100u);  // 8 us -> bucket 3 (le="8")
  EXPECT_EQ(delta.sum_nanos, 100u * 8000u);

  // Quantiles interpolate within the selected bucket, so they stay
  // inside that bucket's (lower, upper] range.
  const double p50 = obs::SnapshotQuantileMicros(delta, 0.5);
  EXPECT_GT(p50, 4.0);
  EXPECT_LE(p50, 8.0);
  // The full histogram is bimodal 1us/8us: the median sits in the low
  // bucket, the p99 in the high one.
  EXPECT_LE(obs::SnapshotQuantileMicros(after, 0.5), 1.0);
  EXPECT_GT(obs::SnapshotQuantileMicros(after, 0.99), 4.0);
}

TEST(HistogramDeathTest, SnapshotDeltaRefusesAReversedPair) {
  // SnapshotDelta(a, b) is a − b: passing the earlier snapshot first
  // would wrap every bucket below zero, so it aborts instead.
  obs::Histogram h;
  h.Observe(1000);
  const obs::Histogram::Snapshot before = h.Snap();
  h.Observe(8000);
  const obs::Histogram::Snapshot after = h.Snap();
  EXPECT_DEATH(obs::SnapshotDelta(before, after), "reversed");
}

// ---------------------------------------------------------------------------
// Prometheus exposition golden.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  obs::Registry reg;
  reg.GetCounter("tsq_eggs_total")->Add(3);
  reg.GetCounter("tsq_rpc_total", "verb=\"ping\"")->Add(1);
  reg.GetCounter("tsq_rpc_total", "verb=\"stats\"")->Add(2);
  reg.GetGauge("tsq_depth")->Set(-4);
  obs::Histogram* h = reg.GetHistogram("tsq_lat_us");
  h->Observe(1000);  // 1 us -> bucket 0
  h->Observe(3000);  // 3 us -> bucket 2

  std::string expected;
  expected +=
      "# TYPE tsq_eggs_total counter\n"
      "tsq_eggs_total 3\n"
      "# TYPE tsq_rpc_total counter\n"
      "tsq_rpc_total{verb=\"ping\"} 1\n"
      "tsq_rpc_total{verb=\"stats\"} 2\n"
      "# TYPE tsq_depth gauge\n"
      "tsq_depth -4\n"
      "# TYPE tsq_lat_us histogram\n";
  for (size_t i = 0; i < obs::Histogram::kFiniteBuckets; ++i) {
    const uint64_t cumulative = i >= 2 ? 2 : 1;
    expected += "tsq_lat_us_bucket{le=\"" +
                std::to_string(obs::Histogram::BucketUpperMicros(i)) +
                "\"} " + std::to_string(cumulative) + "\n";
  }
  expected +=
      "tsq_lat_us_bucket{le=\"+Inf\"} 2\n"
      "tsq_lat_us_sum 4.000000\n"
      "tsq_lat_us_count 2\n";

  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

// ---------------------------------------------------------------------------
// Stage tracing: answers are bit-identical, stages account elapsed time.
// ---------------------------------------------------------------------------

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("TSQ_SLOW_QUERY_MS");
    data_ = workload::MakeRandomWalkDataset(20260808, 64, 64);
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "traced";
    options.buffer_pool_frames = 16;  // small pool: queries touch disk
    db_ = Database::Create(options).value();
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (const TimeSeries& s : data_) {
      names.push_back(s.name());
      values.push_back(s.values());
    }
    ASSERT_TRUE(db_->InsertBatch(names, values, 2).ok());
    ASSERT_TRUE(db_->BuildIndex().ok());
  }

  void TearDown() override {
    obs::DisarmTracing();
    obs::DisarmMetrics();
  }

  std::vector<BatchQuery> MakeBatch() const {
    std::vector<BatchQuery> batch;
    for (size_t i = 0; i < 12; ++i) {
      BatchQuery q;
      q.query = data_[(i * 11) % data_.size()].values();
      if (i % 3 == 0) {
        q.kind = BatchQueryKind::kKnn;
        q.k = 1 + i % 4;
      } else {
        q.kind = BatchQueryKind::kRange;
        q.epsilon = (i % 2 == 0) ? 2.0 : 6.0;
      }
      batch.push_back(std::move(q));
    }
    return batch;
  }

  testing::TempDir dir_;
  std::vector<TimeSeries> data_;
  std::unique_ptr<Database> db_;
};

TEST_F(TracingTest, AnswersBitIdenticalTracedVsUntraced) {
  const std::vector<BatchQuery> batch = MakeBatch();

  obs::DisarmTracing();
  auto plain = db_->RunBatch(batch, 2);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  obs::ArmTracing();
  auto traced = db_->RunBatch(batch, 2);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  obs::DisarmTracing();

  ASSERT_EQ(plain->size(), traced->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    const BatchResult& p = (*plain)[i];
    const BatchResult& t = (*traced)[i];
    ASSERT_TRUE(p.status.ok());
    ASSERT_TRUE(t.status.ok());
    // Bit-identical answers: the stage timers only read clocks.
    ASSERT_EQ(p.matches.size(), t.matches.size()) << "query " << i;
    for (size_t m = 0; m < p.matches.size(); ++m) {
      EXPECT_EQ(p.matches[m].id, t.matches[m].id) << "query " << i;
      EXPECT_EQ(p.matches[m].distance, t.matches[m].distance)
          << "query " << i;
    }

    // Untraced stats carry no stage times (canonical form).
    EXPECT_FALSE(p.stats.traced);
    EXPECT_EQ(p.stats.prepare_ms, 0.0);
    EXPECT_EQ(p.stats.descent_ms, 0.0);
    EXPECT_EQ(p.stats.delta_ms, 0.0);
    EXPECT_EQ(p.stats.pool_wait_ms, 0.0);
    EXPECT_EQ(p.stats.refine_ms, 0.0);

    // Traced stats: flag set, and the exclusive (self-time) stages sum
    // to at most the query's wall time.
    EXPECT_TRUE(t.stats.traced);
    const double stage_sum = t.stats.prepare_ms + t.stats.descent_ms +
                             t.stats.delta_ms + t.stats.pool_wait_ms +
                             t.stats.refine_ms;
    EXPECT_GT(stage_sum, 0.0) << "query " << i;
    EXPECT_LE(stage_sum, t.stats.elapsed_ms + 1e-6) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Slow-query log gating.
// ---------------------------------------------------------------------------

TEST(SlowQueryTest, ThresholdGatesTheLog) {
  ::unsetenv("TSQ_SLOW_QUERY_MS");
  obs::Counter* slow = obs::RegisterCounter("tsq_slow_queries_total");
  const LogLevel saved_level = Logger::GetLevel();
  Logger::SetLevel(LogLevel::kWarn);  // the slow-query line is a WARN

  auto data = workload::MakeRandomWalkDataset(4242, 32, 64);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (const TimeSeries& s : data) {
    names.push_back(s.name());
    values.push_back(s.values());
  }

  auto build = [&](const std::string& dir, uint64_t slow_ms) {
    DatabaseOptions options;
    options.directory = dir;
    options.name = "slowlog";
    options.slow_query_ms = slow_ms;
    // A pool far smaller than the relation, so reads always fault.
    options.buffer_pool_frames = 8;
    auto db = Database::Create(options).value();
    EXPECT_TRUE(db->InsertBatch(names, values, 2).ok());
    EXPECT_TRUE(db->BuildIndex().ok());
    return db;
  };

  // Every positioned read sleeps (the relation's record reads go through
  // io_pread): the indexed range query below verifies at least the query
  // series itself, so it is guaranteed to cross a 1 ms threshold without
  // depending on host speed. Returns what the query wrote to stderr.
  const auto slow_range = [&](Database* db) {
    failpoint::SetCallback("io_pread", [](uint64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    ::testing::internal::CaptureStderr();
    auto matches = Range(db, data[0].values(), 2.0);
    const std::string log = ::testing::internal::GetCapturedStderr();
    failpoint::Clear("io_pread");
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
    EXPECT_FALSE(matches.ok() && matches->empty());
    return log;
  };

  {
    // Disabled (the default): even a genuinely slow query logs nothing.
    testing::TempDir dir;
    auto db = build(dir.path(), 0);
    const uint64_t before = slow->Value();
    const std::string log = slow_range(db.get());
    EXPECT_EQ(log.find("slow query"), std::string::npos) << log;
    EXPECT_EQ(slow->Value(), before);
  }

  {
    // Enabled with a 1 ms threshold: the same slow query crosses it, and
    // the line names the kind of query that ran.
    testing::TempDir dir;
    auto db = build(dir.path(), 1);
    const uint64_t before = slow->Value();
    const std::string log = slow_range(db.get());
    EXPECT_NE(log.find("slow query op=range "), std::string::npos) << log;
    EXPECT_GT(slow->Value(), before);
  }

  // Enabling the slow-query log arms tracing process-wide; restore.
  obs::DisarmTracing();
  obs::DisarmMetrics();
  Logger::SetLevel(saved_level);
}

// ---------------------------------------------------------------------------
// Wire protocol: METRICS verb, stage tail, server counters.
// ---------------------------------------------------------------------------

/// Strips the 16-byte frame header Encode* prepends; the decoders
/// consume the bare payload.
std::vector<uint8_t> PayloadOf(const serde::Buffer& frame) {
  return std::vector<uint8_t>(frame.data() + server::kFrameHeaderBytes,
                              frame.data() + frame.size());
}

TEST(ObsProtocolTest, MetricsVerbRoundTrips) {
  server::Request request;
  request.verb = server::Verb::kMetrics;
  request.id = 99;
  serde::Buffer frame;
  server::EncodeRequest(request, &frame);
  std::vector<uint8_t> payload = PayloadOf(frame);
  server::Request out;
  Status status =
      server::DecodeRequest(payload.data(), payload.size(), &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.verb, server::Verb::kMetrics);
  EXPECT_EQ(out.id, 99u);

  server::Reply reply;
  reply.verb = server::Verb::kMetrics;
  reply.id = 99;
  reply.metrics_text = "# TYPE tsq_eggs_total counter\ntsq_eggs_total 3\n";
  frame.clear();
  server::EncodeReply(reply, &frame);
  payload = PayloadOf(frame);
  server::Reply reply_out;
  status = server::DecodeReply(payload.data(), payload.size(), &reply_out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reply_out.verb, server::Verb::kMetrics);
  EXPECT_EQ(reply_out.metrics_text, reply.metrics_text);
}

TEST(ObsProtocolTest, ServerCountersRideTheStatsReply) {
  server::Reply reply;
  reply.verb = server::Verb::kStats;
  reply.id = 7;
  reply.server_counters.connections_accepted = 11;
  reply.server_counters.connections_closed = 10;
  reply.server_counters.frames_received = 900;
  reply.server_counters.requests_executed = 850;
  reply.server_counters.busy_rejected = 40;
  reply.server_counters.protocol_errors = 3;
  reply.server_counters.accept_backoffs = 1;
  serde::Buffer frame;
  server::EncodeReply(reply, &frame);
  std::vector<uint8_t> payload = PayloadOf(frame);
  server::Reply out;
  Status status = server::DecodeReply(payload.data(), payload.size(), &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.server_counters.connections_accepted, 11u);
  EXPECT_EQ(out.server_counters.connections_closed, 10u);
  EXPECT_EQ(out.server_counters.frames_received, 900u);
  EXPECT_EQ(out.server_counters.requests_executed, 850u);
  EXPECT_EQ(out.server_counters.busy_rejected, 40u);
  EXPECT_EQ(out.server_counters.protocol_errors, 3u);
  EXPECT_EQ(out.server_counters.accept_backoffs, 1u);
}

TEST(ObsProtocolTest, VerbWordIsRangeCheckedWhole) {
  // A verb word with any bit above the known verbs is Corruption, not a
  // known verb with the high bits ignored.
  serde::Buffer payload;
  serde::PutU32(&payload, 0x800u | uint32_t(server::Verb::kPing));
  serde::PutU64(&payload, 1);
  server::Request out;
  Status status =
      server::DecodeRequest(payload.data(), payload.size(), &out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();

  payload.clear();
  serde::PutU32(&payload, 0x100u | uint32_t(server::Verb::kPing));
  serde::PutU64(&payload, 2);
  status = server::DecodeRequest(payload.data(), payload.size(), &out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

/// Encodes a one-result kQuery reply whose stats carry the given stage
/// trace, returning the bare payload.
std::vector<uint8_t> EncodeTracedQueryReply(bool traced, double refine_ms) {
  server::Reply reply;
  reply.verb = server::Verb::kQuery;
  reply.id = 5;
  BatchResult result;
  result.matches.push_back(Match{3, "s3", 1.25});
  result.stats.answers = 1;
  result.stats.elapsed_ms = 9.0;
  result.stats.traced = traced;
  result.stats.prepare_ms = traced ? 1.0 : 0.0;
  result.stats.descent_ms = traced ? 2.0 : 0.0;
  result.stats.delta_ms = traced ? 0.5 : 0.0;
  result.stats.pool_wait_ms = traced ? 1.5 : 0.0;
  result.stats.refine_ms = refine_ms;
  reply.results.push_back(std::move(result));
  serde::Buffer frame;
  server::EncodeReply(reply, &frame);
  return PayloadOf(frame);
}

TEST(ObsProtocolTest, StageTailRoundTrips) {
  std::vector<uint8_t> payload =
      EncodeTracedQueryReply(/*traced=*/true, /*refine_ms=*/3.5);
  server::Reply out;
  Status status = server::DecodeReply(payload.data(), payload.size(), &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(out.results.size(), 1u);
  const QueryStats& stats = out.results[0].stats;
  EXPECT_TRUE(stats.traced);
  EXPECT_EQ(stats.prepare_ms, 1.0);
  EXPECT_EQ(stats.descent_ms, 2.0);
  EXPECT_EQ(stats.delta_ms, 0.5);
  EXPECT_EQ(stats.pool_wait_ms, 1.5);
  EXPECT_EQ(stats.refine_ms, 3.5);

  // An untraced result carries traced=0 and five zero stage times, and
  // decodes with zeroed stage fields.
  payload = EncodeTracedQueryReply(/*traced=*/false, /*refine_ms=*/0.0);
  status = server::DecodeReply(payload.data(), payload.size(), &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(out.results[0].stats.traced);
  EXPECT_EQ(out.results[0].stats.refine_ms, 0.0);
}

TEST(ObsProtocolTest, StageTailCanonicalEncodingRejections) {
  // The stage tail ends the payload: u32 traced + 5 doubles = 44 bytes.
  constexpr size_t kTailBytes = 4 + 5 * 8;

  // traced > 1 is not a bool.
  std::vector<uint8_t> payload =
      EncodeTracedQueryReply(/*traced=*/true, /*refine_ms=*/3.5);
  payload[payload.size() - kTailBytes] = 2;
  server::Reply out;
  Status status = server::DecodeReply(payload.data(), payload.size(), &out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();

  // An untraced result must not carry stage times.
  payload = EncodeTracedQueryReply(/*traced=*/true, /*refine_ms=*/3.5);
  payload[payload.size() - kTailBytes] = 0;
  status = server::DecodeReply(payload.data(), payload.size(), &out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

// ---------------------------------------------------------------------------
// End to end: scrape a live tsqd.
// ---------------------------------------------------------------------------

TEST(ObsEndToEndTest, MetricsScrapeAndStatsCounters) {
  ::unsetenv("TSQ_SLOW_QUERY_MS");
  testing::TempDir dir;
  auto data = workload::MakeRandomWalkDataset(20260808, 48, 64);
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "scraped";
  auto db = Database::Create(options).value();
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (const TimeSeries& s : data) {
    names.push_back(s.name());
    values.push_back(s.values());
  }
  ASSERT_TRUE(db->InsertBatch(names, values, 2).ok());
  ASSERT_TRUE(db->BuildIndex().ok());

  auto started = server::Server::Start(db.get(), server::ServerOptions{});
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto server = std::move(*started);

  auto connected = server::Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  auto client = std::move(*connected);

  // Drive one query so per-verb metrics have something to say.
  auto answer = client->Range(data[0].values(), 2.0);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();

  auto scrape = client->Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const std::string& text = *scrape;
  EXPECT_NE(text.find("# TYPE tsqd_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("tsqd_requests_total{verb=\"query\"} "),
            std::string::npos);
  EXPECT_NE(text.find("tsqd_request_latency_us_bucket{verb=\"query\",le="),
            std::string::npos);
  EXPECT_NE(text.find("tsq_series 48"), std::string::npos);
  EXPECT_NE(text.find("tsq_index_epoch "), std::string::npos);
  EXPECT_NE(text.find("tsq_degraded 0"), std::string::npos);
  EXPECT_NE(text.find("tsqd_frames_received_total "), std::string::npos);

  // A second scrape sees strictly more frames (the first scrape itself).
  auto scrape2 = client->Metrics();
  ASSERT_TRUE(scrape2.ok()) << scrape2.status().ToString();
  EXPECT_NE(scrape2->find("tsqd_requests_total{verb=\"metrics\"} "),
            std::string::npos);

  // The STATS reply carries the server counters.
  server::ServerCounters counters;
  auto stats = client->Stats(&counters);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->series, 48u);
  EXPECT_GE(counters.connections_accepted, 1u);
  EXPECT_GE(counters.frames_received, 3u);
  EXPECT_GE(counters.requests_executed, 1u);

  client.reset();
  server->Stop();
  obs::DisarmMetrics();  // Server::Start armed the process-wide switch
}

}  // namespace
}  // namespace tsq
