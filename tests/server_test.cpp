// Copyright (c) 2026 The tsq Authors.
//
// The tsqd subsystem suite: wire-protocol round-trips for every verb,
// malformed-frame rejection (the server feeds the decoders untrusted
// bytes), end-to-end loopback equality — every remote verb must answer
// bit-identically to the in-process Database call it proxies, at every
// poller count — plus the concurrent multi-client stress, pipelined and
// split framing per poller count, a connection-churn stress, the BUSY
// backpressure path, the front-end failure modes (fd-exhaustion accept
// backoff, client timeouts on a hung server, immediate retirement of
// reset peers) and the drain-on-shutdown guarantee. The stress suites
// run under the CI TSan job: the poller threads, the execution pool and
// N client threads exercise the accept handoff inboxes, the connection
// write-buffer handoff and the admission counter together.

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "engine/query_engine.h"
#include "gtest/gtest.h"
#include "rtree/node.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "test_util.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace server {
namespace {

using engine::BatchQuery;
using engine::BatchQueryKind;
using engine::BatchResult;
using testing::Knn;
using testing::Range;

constexpr size_t kNumSeries = 80;
constexpr size_t kLength = 64;
constexpr uint64_t kSeed = 20260729;

/// Opens a raw loopback TCP connection to `port`; -1 on failure.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `pred` until it holds or `timeout_ms` elapses.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Reads reply frames off `fd` until `count` have decoded.
::testing::AssertionResult ReadReplies(int fd, size_t count,
                                       std::vector<Reply>* out) {
  FrameReader reader;
  uint8_t buf[64 * 1024];
  while (out->size() < count) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return ::testing::AssertionFailure()
             << "connection ended after " << out->size() << "/" << count
             << " replies";
    }
    Status status = reader.Feed(buf, static_cast<size_t>(n),
                                [out](const uint8_t* payload, size_t size) {
                                  Reply reply;
                                  TSQ_RETURN_IF_ERROR(
                                      DecodeReply(payload, size, &reply));
                                  out->push_back(std::move(reply));
                                  return Status::OK();
                                });
    if (!status.ok()) {
      return ::testing::AssertionFailure()
             << "reply stream corrupt: " << status.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Encodes one single-query range request frame.
serde::Buffer EncodeRangeFrame(uint64_t id, const RealVec& query,
                               double epsilon) {
  Request request;
  request.verb = Verb::kQuery;
  request.id = id;
  BatchQuery q;
  q.kind = BatchQueryKind::kRange;
  q.query = query;
  q.epsilon = epsilon;
  request.queries.push_back(std::move(q));
  serde::Buffer frame;
  EncodeRequest(request, &frame);
  return frame;
}

// ---------------------------------------------------------------------------
// Protocol round-trips (no sockets).
// ---------------------------------------------------------------------------

QuerySpec MakeRichSpec() {
  QuerySpec spec;
  spec.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));
  spec.transform->mean_scale = 0.5;
  spec.transform->mean_offset = -2.0;
  spec.transform->std_scale = 3.0;
  spec.mode = TransformMode::kDataOnly;
  spec.window = MeanStdWindow{-1.5, 2.5, 0.25, 4.0};
  return spec;
}

void ExpectSpecEq(const QuerySpec& actual, const QuerySpec& expected) {
  ASSERT_EQ(actual.transform.has_value(), expected.transform.has_value());
  if (expected.transform.has_value()) {
    EXPECT_EQ(actual.transform->spectral.a(), expected.transform->spectral.a());
    EXPECT_EQ(actual.transform->spectral.b(), expected.transform->spectral.b());
    EXPECT_EQ(actual.transform->spectral.cost(),
              expected.transform->spectral.cost());
    EXPECT_EQ(actual.transform->spectral.name(),
              expected.transform->spectral.name());
    EXPECT_EQ(actual.transform->mean_scale, expected.transform->mean_scale);
    EXPECT_EQ(actual.transform->mean_offset, expected.transform->mean_offset);
    EXPECT_EQ(actual.transform->std_scale, expected.transform->std_scale);
  }
  EXPECT_EQ(actual.mode, expected.mode);
  ASSERT_EQ(actual.window.has_value(), expected.window.has_value());
  if (expected.window.has_value()) {
    EXPECT_EQ(actual.window->mean_lo, expected.window->mean_lo);
    EXPECT_EQ(actual.window->mean_hi, expected.window->mean_hi);
    EXPECT_EQ(actual.window->std_lo, expected.window->std_lo);
    EXPECT_EQ(actual.window->std_hi, expected.window->std_hi);
  }
}

/// Feeds `frame` to a FrameReader in awkward 7-byte chunks and returns
/// the decoded payloads.
std::vector<serde::Buffer> ReassembleFrames(const serde::Buffer& frame) {
  FrameReader reader;
  std::vector<serde::Buffer> payloads;
  for (size_t off = 0; off < frame.size(); off += 7) {
    const size_t n = std::min<size_t>(7, frame.size() - off);
    Status status =
        reader.Feed(frame.data() + off, n,
                    [&payloads](const uint8_t* payload, size_t size) {
                      payloads.emplace_back(payload, payload + size);
                      return Status::OK();
                    });
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(reader.buffered(), 0u);
  return payloads;
}

Request RoundTripRequest(const Request& request) {
  serde::Buffer frame;
  EncodeRequest(request, &frame);
  std::vector<serde::Buffer> payloads = ReassembleFrames(frame);
  EXPECT_EQ(payloads.size(), 1u);
  Request out;
  Status status = DecodeRequest(payloads[0].data(), payloads[0].size(), &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

Reply RoundTripReply(const Reply& reply) {
  serde::Buffer frame;
  EncodeReply(reply, &frame);
  std::vector<serde::Buffer> payloads = ReassembleFrames(frame);
  EXPECT_EQ(payloads.size(), 1u);
  Reply out;
  Status status = DecodeReply(payloads[0].data(), payloads[0].size(), &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(ProtocolTest, PingAndStatsRequestsRoundTrip) {
  for (Verb verb : {Verb::kPing, Verb::kStats, Verb::kReindex}) {
    Request request;
    request.verb = verb;
    request.id = 42;
    Request out = RoundTripRequest(request);
    EXPECT_EQ(out.verb, verb);
    EXPECT_EQ(out.id, 42u);
  }
}

TEST(ProtocolTest, QueryAndBatchRequestsRoundTrip) {
  Rng rng(kSeed);
  Request request;
  request.verb = Verb::kBatch;
  request.id = 7;
  BatchQuery range;
  range.kind = BatchQueryKind::kRange;
  range.query = testing::RandomRealVec(&rng, kLength);
  range.epsilon = 2.25;
  range.spec = MakeRichSpec();
  BatchQuery knn;
  knn.kind = BatchQueryKind::kKnn;
  knn.query = testing::RandomRealVec(&rng, kLength);
  knn.k = 9;
  request.queries = {range, knn};

  Request out = RoundTripRequest(request);
  EXPECT_EQ(out.verb, Verb::kBatch);
  EXPECT_EQ(out.id, 7u);
  ASSERT_EQ(out.queries.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.queries[i].kind, request.queries[i].kind);
    EXPECT_EQ(out.queries[i].query, request.queries[i].query);
    EXPECT_EQ(out.queries[i].epsilon, request.queries[i].epsilon);
    EXPECT_EQ(out.queries[i].k, request.queries[i].k);
    ExpectSpecEq(out.queries[i].spec, request.queries[i].spec);
  }

  request.verb = Verb::kQuery;
  request.queries = {range};
  Request single = RoundTripRequest(request);
  ASSERT_EQ(single.queries.size(), 1u);
  EXPECT_EQ(single.queries[0].query, range.query);
}

TEST(ProtocolTest, InsertRequestRoundTrips) {
  Rng rng(kSeed + 1);
  Request request;
  request.verb = Verb::kInsert;
  request.id = 11;
  request.insert_names = {"alpha", "", "gamma"};
  request.insert_values = {testing::RandomRealVec(&rng, 8),
                           testing::RandomRealVec(&rng, 8), RealVec{}};
  Request out = RoundTripRequest(request);
  EXPECT_EQ(out.insert_names, request.insert_names);
  EXPECT_EQ(out.insert_values, request.insert_values);
}

TEST(ProtocolTest, SelfJoinRequestRoundTrips) {
  Request request;
  request.verb = Verb::kSelfJoin;
  request.id = 13;
  request.epsilon = 3.5;
  request.transform =
      FeatureTransform::Spectral(transforms::Reverse(kLength));
  Request out = RoundTripRequest(request);
  EXPECT_EQ(out.epsilon, 3.5);
  ASSERT_TRUE(out.transform.has_value());
  EXPECT_EQ(out.transform->spectral.a(), request.transform->spectral.a());
  EXPECT_EQ(out.transform->spectral.name(), "reverse");
}

TEST(ProtocolTest, RepliesRoundTripEveryShape) {
  // OK query reply with matches and stats.
  Reply query_reply;
  query_reply.verb = Verb::kQuery;
  query_reply.id = 3;
  BatchResult result;
  result.matches = {{5, "SIMa", 1.25}, {9, "SIMb", 2.5}};
  result.stats.candidates = 4;
  result.stats.verified = 2;
  result.stats.elapsed_ms = 1.5;
  query_reply.results.push_back(result);
  Reply out = RoundTripReply(query_reply);
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_EQ(out.results[0].matches.size(), 2u);
  EXPECT_EQ(out.results[0].matches[1].name, "SIMb");
  EXPECT_EQ(out.results[0].matches[1].distance, 2.5);
  EXPECT_EQ(out.results[0].stats.candidates, 4u);
  EXPECT_EQ(out.results[0].stats.elapsed_ms, 1.5);

  // Batch reply with a per-query error.
  Reply batch_reply;
  batch_reply.verb = Verb::kBatch;
  batch_reply.id = 4;
  BatchResult failed;
  failed.status = Status::InvalidArgument("query length 3 != index 64");
  batch_reply.results = {result, failed};
  out = RoundTripReply(batch_reply);
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_TRUE(out.results[1].status.IsInvalidArgument());
  EXPECT_EQ(out.results[1].status.message(), "query length 3 != index 64");

  // Insert reply.
  Reply insert_reply;
  insert_reply.verb = Verb::kInsert;
  insert_reply.id = 5;
  insert_reply.insert_base = 80;
  insert_reply.insert_count = 3;
  out = RoundTripReply(insert_reply);
  EXPECT_EQ(out.insert_base, 80u);
  EXPECT_EQ(out.insert_count, 3u);

  // Self-join reply.
  Reply join_reply;
  join_reply.verb = Verb::kSelfJoin;
  join_reply.id = 6;
  join_reply.pairs = {{1, 2, 0.5}, {2, 1, 0.5}};
  out = RoundTripReply(join_reply);
  ASSERT_EQ(out.pairs.size(), 2u);
  EXPECT_EQ(out.pairs[0].first, 1u);
  EXPECT_EQ(out.pairs[1].second, 1u);
  EXPECT_EQ(out.pairs[0].distance, 0.5);

  // Stats reply.
  Reply stats_reply;
  stats_reply.verb = Verb::kStats;
  stats_reply.id = 7;
  stats_reply.stats.series = 80;
  stats_reply.stats.index_built = true;
  stats_reply.stats.pool_hits = 123;
  stats_reply.stats.tree_height = 2;
  stats_reply.stats.index_epoch = 4;
  stats_reply.stats.delta_entries = 17;
  stats_reply.stats.merges_completed = 3;
  out = RoundTripReply(stats_reply);
  EXPECT_EQ(out.stats.series, 80u);
  EXPECT_TRUE(out.stats.index_built);
  EXPECT_EQ(out.stats.pool_hits, 123u);
  EXPECT_EQ(out.stats.tree_height, 2u);
  EXPECT_EQ(out.stats.index_epoch, 4u);
  EXPECT_EQ(out.stats.delta_entries, 17u);
  EXPECT_EQ(out.stats.merges_completed, 3u);

  // Reindex reply.
  Reply reindex_reply;
  reindex_reply.verb = Verb::kReindex;
  reindex_reply.id = 8;
  reindex_reply.reindex_epoch = 5;
  out = RoundTripReply(reindex_reply);
  EXPECT_EQ(out.verb, Verb::kReindex);
  EXPECT_EQ(out.reindex_epoch, 5u);

  // Error reply.
  Reply error_reply;
  error_reply.code = ReplyCode::kError;
  error_reply.verb = Verb::kQuery;
  error_reply.id = 8;
  error_reply.error = Status::FailedPrecondition("RunBatch requires index");
  out = RoundTripReply(error_reply);
  EXPECT_EQ(out.code, ReplyCode::kError);
  EXPECT_TRUE(out.error.IsFailedPrecondition());

  // Busy reply.
  Reply busy_reply;
  busy_reply.code = ReplyCode::kBusy;
  busy_reply.verb = Verb::kBatch;
  busy_reply.id = 9;
  out = RoundTripReply(busy_reply);
  EXPECT_EQ(out.code, ReplyCode::kBusy);
  EXPECT_EQ(out.id, 9u);
}

TEST(ProtocolTest, KnnOptionsRoundTripAndRejectOutOfRangeValues) {
  Rng rng(kSeed + 2);
  Request request;
  request.verb = Verb::kQuery;
  request.id = 21;
  BatchQuery knn;
  knn.kind = BatchQueryKind::kKnn;
  knn.query = testing::RandomRealVec(&rng, kLength);
  knn.k = 7;
  knn.knn = KnnOptions{0.25, 99};
  request.queries = {knn};
  Request out = RoundTripRequest(request);
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].knn.epsilon, 0.25);
  EXPECT_EQ(out.queries[0].knn.probe_budget, 99u);

  // Every query carries its options as the last 16 payload bytes
  // (epsilon f64 | probe u64); a negative or NaN epsilon is Corruption.
  serde::Buffer frame;
  EncodeRequest(request, &frame);
  const serde::Buffer payload(frame.begin() + kFrameHeaderBytes, frame.end());
  const auto decode_with = [&payload](size_t offset_from_end,
                                      const serde::Buffer& bytes) {
    serde::Buffer edited = payload;
    std::copy(bytes.begin(), bytes.end(), edited.end() - offset_from_end);
    Request rejected;
    return DecodeRequest(edited.data(), edited.size(), &rejected);
  };
  for (const double bad_epsilon :
       {-0.5, std::numeric_limits<double>::quiet_NaN()}) {
    serde::Buffer bytes;
    serde::PutDouble(&bytes, bad_epsilon);
    EXPECT_TRUE(decode_with(16, bytes).IsCorruption()) << bad_epsilon;
  }

  // The kind is range-checked as a whole u32 (payload offset 12, after the
  // verb u32 and id u64): a high bit, or the retired kind 2, is Corruption.
  Request rejected;
  serde::Buffer edited = payload;
  edited[13] |= 0x01;
  EXPECT_TRUE(
      DecodeRequest(edited.data(), edited.size(), &rejected).IsCorruption());
  edited = payload;
  edited[12] = 2;
  EXPECT_TRUE(
      DecodeRequest(edited.data(), edited.size(), &rejected).IsCorruption());
}

TEST(ProtocolTest, ApproxStatsRoundTripAndRejectOutOfRangeValues) {
  Reply reply;
  reply.verb = Verb::kQuery;
  reply.id = 22;
  BatchResult result;
  result.matches = {{5, "SIMa", 1.25}};
  result.stats.candidates = 12;
  result.stats.pruned = 188;
  result.stats.max_error = std::numeric_limits<double>::infinity();
  result.stats.approx = true;
  reply.results.push_back(result);
  Reply out = RoundTripReply(reply);
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_EQ(out.results[0].stats.pruned, 188u);
  EXPECT_EQ(out.results[0].stats.max_error, result.stats.max_error);
  EXPECT_TRUE(out.results[0].stats.approx);

  // The approx word sits just before the 44-byte stage tail that ends the
  // payload; it is a 0/1 boolean.
  serde::Buffer frame;
  EncodeReply(reply, &frame);
  serde::Buffer payload(frame.begin() + kFrameHeaderBytes, frame.end());
  payload[payload.size() - 44 - 4] = 2;
  Reply rejected;
  EXPECT_TRUE(
      DecodeReply(payload.data(), payload.size(), &rejected).IsCorruption());

  // The reply code is range-checked as a whole u32: a high bit on a ping
  // reply's code word is Corruption.
  Reply ping;
  ping.verb = Verb::kPing;
  ping.id = 23;
  frame.clear();
  EncodeReply(ping, &frame);
  payload.assign(frame.begin() + kFrameHeaderBytes, frame.end());
  payload[1] |= 0x01;
  EXPECT_TRUE(
      DecodeReply(payload.data(), payload.size(), &rejected).IsCorruption());
}

TEST(ProtocolTest, PipelinedFramesDecodeInOneFeed) {
  Request a;
  a.verb = Verb::kPing;
  a.id = 1;
  Request b;
  b.verb = Verb::kStats;
  b.id = 2;
  serde::Buffer stream;
  EncodeRequest(a, &stream);
  EncodeRequest(b, &stream);
  FrameReader reader;
  std::vector<uint64_t> ids;
  Status status = reader.Feed(
      stream.data(), stream.size(),
      [&ids](const uint8_t* payload, size_t size) {
        Request request;
        TSQ_RETURN_IF_ERROR(DecodeRequest(payload, size, &request));
        ids.push_back(request.id);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2}));
}

TEST(ProtocolTest, FrameReaderRejectsBadMagicAndStaysPoisoned) {
  FrameReader reader;
  serde::Buffer junk(32, 0xAB);
  auto sink = [](const uint8_t*, size_t) { return Status::OK(); };
  EXPECT_TRUE(reader.Feed(junk.data(), junk.size(), sink).IsCorruption());
  // Even a now-valid frame is refused: framing trust is gone.
  serde::Buffer frame;
  Request request;
  request.verb = Verb::kPing;
  EncodeRequest(request, &frame);
  EXPECT_TRUE(reader.Feed(frame.data(), frame.size(), sink).IsCorruption());
}

TEST(ProtocolTest, FrameReaderRejectsCrcMismatch) {
  Request request;
  request.verb = Verb::kStats;
  request.id = 3;
  serde::Buffer frame;
  EncodeRequest(request, &frame);
  frame.back() ^= 0xFF;  // flip one payload byte under the CRC
  FrameReader reader;
  auto sink = [](const uint8_t*, size_t) { return Status::OK(); };
  EXPECT_TRUE(reader.Feed(frame.data(), frame.size(), sink).IsCorruption());
}

TEST(ProtocolTest, FrameReaderRejectsOversizedDeclaredPayload) {
  serde::Buffer frame;
  serde::PutU32(&frame, kFrameMagic);
  serde::PutU32(&frame, 0);
  serde::PutU64(&frame, uint64_t{1} << 40);  // 1 TiB claim, no bytes behind it
  FrameReader reader(/*max_payload=*/1 << 20);
  auto sink = [](const uint8_t*, size_t) { return Status::OK(); };
  Status status = reader.Feed(frame.data(), frame.size(), sink);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(ProtocolTest, TruncatedFrameWaitsForMoreBytes) {
  Request request;
  request.verb = Verb::kStats;
  request.id = 5;
  serde::Buffer frame;
  EncodeRequest(request, &frame);
  FrameReader reader;
  size_t decoded = 0;
  auto sink = [&decoded](const uint8_t*, size_t) {
    ++decoded;
    return Status::OK();
  };
  ASSERT_TRUE(reader.Feed(frame.data(), frame.size() - 1, sink).ok());
  EXPECT_EQ(decoded, 0u);
  EXPECT_GT(reader.buffered(), 0u);
  ASSERT_TRUE(reader.Feed(frame.data() + frame.size() - 1, 1, sink).ok());
  EXPECT_EQ(decoded, 1u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ProtocolTest, DecodeRejectsTrailingGarbageAndBadEnums) {
  // Trailing garbage after a valid ping body.
  serde::Buffer payload;
  serde::PutU32(&payload, static_cast<uint32_t>(Verb::kPing));
  serde::PutU64(&payload, 1);
  serde::PutU32(&payload, 0xDEAD);
  Request request;
  EXPECT_TRUE(
      DecodeRequest(payload.data(), payload.size(), &request).IsCorruption());

  // Unknown verb.
  payload.clear();
  serde::PutU32(&payload, 99);
  serde::PutU64(&payload, 1);
  EXPECT_TRUE(
      DecodeRequest(payload.data(), payload.size(), &request).IsCorruption());

  // Transform whose a/b vectors disagree must decode to Corruption, not
  // trip LinearTransform's invariant abort.
  payload.clear();
  serde::PutU32(&payload, static_cast<uint32_t>(Verb::kSelfJoin));
  serde::PutU64(&payload, 2);
  serde::PutDouble(&payload, 1.0);
  serde::PutU32(&payload, 1);                      // has transform
  serde::PutComplexVec(&payload, ComplexVec(4));   // a: 4 elements
  serde::PutComplexVec(&payload, ComplexVec(3));   // b: 3 elements
  serde::PutDouble(&payload, 0.0);
  serde::PutString(&payload, "bad");
  serde::PutDouble(&payload, 1.0);
  serde::PutDouble(&payload, 0.0);
  serde::PutDouble(&payload, 1.0);
  Status status = DecodeRequest(payload.data(), payload.size(), &request);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();

  // A hostile vector length that would overflow a naive bounds check.
  payload.clear();
  serde::PutU32(&payload, static_cast<uint32_t>(Verb::kInsert));
  serde::PutU64(&payload, 3);
  serde::PutU64(&payload, 1);          // one record
  serde::PutString(&payload, "evil");
  serde::PutU64(&payload, uint64_t{1} << 61);  // claimed vector length
  status = DecodeRequest(payload.data(), payload.size(), &request);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

/// Query stats with every field away from its default: approximate and
/// traced.
QueryStats FullStats() {
  QueryStats stats;
  stats.candidates = 12;
  stats.verified = 7;
  stats.answers = 3;
  stats.nodes_visited = 40;
  stats.rect_transforms = 9;
  stats.disk_reads = 5;
  stats.records_scanned = 2;
  stats.elapsed_ms = 9.5;
  stats.pruned = 188;
  stats.max_error = 0.125;
  stats.approx = true;
  stats.traced = true;
  stats.prepare_ms = 1.0;
  stats.descent_ms = 2.0;
  stats.delta_ms = 0.5;
  stats.pool_wait_ms = 1.5;
  stats.refine_ms = 3.5;
  return stats;
}

/// A request of every verb, each optional field present and each value
/// away from its default.
std::vector<Request> EveryRequestShape() {
  Rng rng(kSeed + 3);
  std::vector<Request> out;
  uint64_t id = 100;
  for (Verb verb : {Verb::kPing, Verb::kStats, Verb::kReindex, Verb::kFlush,
                    Verb::kRepair, Verb::kMetrics}) {
    Request request;
    request.verb = verb;
    request.id = ++id;
    out.push_back(request);
  }
  const BatchQuery range = BatchQuery::Range(
      testing::RandomRealVec(&rng, kLength), 2.25, MakeRichSpec());
  const BatchQuery knn =
      BatchQuery::Knn(testing::RandomRealVec(&rng, kLength), 9, {},
                      KnnOptions{0.25, 99});
  Request query;
  query.verb = Verb::kQuery;
  query.id = ++id;
  query.queries = {range};
  out.push_back(query);
  Request batch;
  batch.verb = Verb::kBatch;
  batch.id = ++id;
  batch.queries = {range, knn};
  out.push_back(batch);
  Request insert;
  insert.verb = Verb::kInsert;
  insert.id = ++id;
  insert.insert_names = {"alpha", "", "gamma"};
  insert.insert_values = {testing::RandomRealVec(&rng, kLength), RealVec{},
                          testing::RandomRealVec(&rng, kLength)};
  out.push_back(insert);
  Request join;
  join.verb = Verb::kSelfJoin;
  join.id = ++id;
  join.epsilon = 3.5;
  join.transform = FeatureTransform::Spectral(transforms::Reverse(kLength));
  out.push_back(join);
  return out;
}

/// A reply of every code and OK verb, each value away from its default.
std::vector<Reply> EveryReplyShape() {
  std::vector<Reply> out;
  uint64_t id = 200;
  Reply error;
  error.code = ReplyCode::kError;
  error.verb = Verb::kQuery;
  error.id = ++id;
  error.error = Status::InvalidArgument("query length 3 != index 64");
  out.push_back(error);
  Reply busy;
  busy.code = ReplyCode::kBusy;
  busy.verb = Verb::kBatch;
  busy.id = ++id;
  out.push_back(busy);
  for (Verb verb : {Verb::kPing, Verb::kFlush, Verb::kRepair}) {
    Reply reply;
    reply.verb = verb;
    reply.id = ++id;
    out.push_back(reply);
  }
  Reply stats;
  stats.verb = Verb::kStats;
  stats.id = ++id;
  // Every DatabaseStats field nonzero, in declaration order.
  stats.stats = DatabaseStats{80, 64, true, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                              10, 11, 12, 13, 14, 15, 16, 17, true, 18, 19};
  stats.server_counters = ServerCounters{11, 10, 900, 850, 40, 3, 1};
  out.push_back(stats);
  Reply metrics;
  metrics.verb = Verb::kMetrics;
  metrics.id = ++id;
  metrics.metrics_text = "# TYPE tsq_series gauge\ntsq_series 80\n";
  out.push_back(metrics);
  BatchResult answered;
  answered.matches = {{5, "SIMa", 1.25}, {9, "SIMb", 2.5}};
  answered.stats = FullStats();
  Reply query;
  query.verb = Verb::kQuery;
  query.id = ++id;
  query.results = {answered};
  out.push_back(query);
  BatchResult failed;
  failed.status = Status::InvalidArgument("query length 3 != index 64");
  BatchResult exact;
  exact.matches = {{2, "STK000002", 0.0}};
  exact.stats.candidates = 4;
  Reply batch;
  batch.verb = Verb::kBatch;
  batch.id = ++id;
  batch.results = {answered, failed, exact};
  out.push_back(batch);
  Reply insert;
  insert.verb = Verb::kInsert;
  insert.id = ++id;
  insert.insert_base = 80;
  insert.insert_count = 3;
  out.push_back(insert);
  Reply join;
  join.verb = Verb::kSelfJoin;
  join.id = ++id;
  join.pairs = {{1, 2, 0.5}, {2, 1, 0.5}};
  out.push_back(join);
  Reply reindex;
  reindex.verb = Verb::kReindex;
  reindex.id = ++id;
  reindex.reindex_epoch = 5;
  out.push_back(reindex);
  return out;
}

/// Decodes `message`'s payload, whole and mutated: the whole payload must
/// decode to a message that re-encodes to the same frame, every strict
/// prefix must be Corruption, and every single-byte flip must decode to
/// OK or an error without aborting (an OK decode must re-encode).
template <typename Message>
void SweepDecoder(const Message& message,
                  void (*encode)(const Message&, serde::Buffer*),
                  Status (*decode)(const uint8_t*, size_t, Message*)) {
  serde::Buffer frame;
  encode(message, &frame);
  const serde::Buffer payload(frame.begin() + kFrameHeaderBytes, frame.end());
  Message out;
  Status status = decode(payload.data(), payload.size(), &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  serde::Buffer again;
  encode(out, &again);
  EXPECT_EQ(again, frame);
  for (size_t size = 0; size < payload.size(); ++size) {
    status = decode(payload.data(), size, &out);
    EXPECT_TRUE(status.IsCorruption())
        << "prefix " << size << "/" << payload.size() << ": "
        << status.ToString();
  }
  serde::Buffer flipped = payload;
  for (size_t i = 0; i < payload.size(); ++i) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      flipped[i] = payload[i] ^ mask;
      if (decode(flipped.data(), flipped.size(), &out).ok()) {
        again.clear();
        encode(out, &again);
      }
    }
    flipped[i] = payload[i];
  }
}

TEST(ProtocolTest, DecoderSweepOverEveryShape) {
  for (const Request& request : EveryRequestShape()) {
    SCOPED_TRACE("request verb " +
                 std::to_string(static_cast<int>(request.verb)));
    SweepDecoder<Request>(request, &EncodeRequest, &DecodeRequest);
  }
  for (const Reply& reply : EveryReplyShape()) {
    SCOPED_TRACE("reply code " + std::to_string(static_cast<int>(reply.code)) +
                 " verb " + std::to_string(static_cast<int>(reply.verb)));
    SweepDecoder<Reply>(reply, &EncodeReply, &DecodeReply);
  }

  // A peer built against the previous layout frames with the old magic
  // "TSQF"; the reader drops it at the header, before any decode.
  serde::Buffer frame;
  EncodeRequest(EveryRequestShape()[0], &frame);
  serde::Buffer old_magic;
  serde::PutU32(&old_magic, 0x46515354);
  std::copy(old_magic.begin(), old_magic.end(), frame.begin());
  FrameReader reader;
  size_t decoded = 0;
  const Status status =
      reader.Feed(frame.data(), frame.size(), [&decoded](const uint8_t*,
                                                         size_t) {
        ++decoded;
        return Status::OK();
      });
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_EQ(decoded, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end loopback.
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = workload::MakeRandomWalkDataset(kSeed, kNumSeries, kLength);
    DatabaseOptions options;
    options.directory = dir_.path();
    options.name = "served";
    options.buffer_pool_frames = 64;
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

  std::unique_ptr<Server> StartServer(const ServerOptions& options = {}) {
    auto server = Server::Start(db_.get(), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  std::unique_ptr<Client> Connect(const Server& server) {
    auto client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// The mixed seeded workload of the stress suites: stored + perturbed
  /// queries, plain and transformed specs, range and kNN.
  std::vector<BatchQuery> MakeBatch(size_t count, uint64_t salt) const {
    Rng rng(kSeed + salt);
    QuerySpec smoothed;
    smoothed.transform =
        FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));
    std::vector<BatchQuery> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      BatchQuery q;
      RealVec values = data_[(i * 17 + salt) % kNumSeries].values();
      if (i % 3 == 1) {
        for (double& v : values) v += rng.Uniform(-0.5, 0.5);
      }
      q.query = std::move(values);
      if (i % 4 == 2) {
        q.kind = BatchQueryKind::kKnn;
        q.k = 1 + i % 5;
      } else {
        q.kind = BatchQueryKind::kRange;
        q.epsilon = (i % 2 == 0) ? 2.0 : 6.0;
      }
      if (i % 5 == 3) q.spec = smoothed;
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static void ExpectResultsEq(const std::vector<BatchResult>& actual,
                              const std::vector<BatchResult>& expected,
                              const std::string& what) {
    ASSERT_EQ(actual.size(), expected.size()) << what;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].status.code(), expected[i].status.code())
          << what << " query " << i;
      EXPECT_EQ(actual[i].status.message(), expected[i].status.message())
          << what << " query " << i;
      ASSERT_EQ(actual[i].matches.size(), expected[i].matches.size())
          << what << " query " << i;
      for (size_t m = 0; m < expected[i].matches.size(); ++m) {
        EXPECT_EQ(actual[i].matches[m].id, expected[i].matches[m].id)
            << what << " query " << i << " match " << m;
        EXPECT_EQ(actual[i].matches[m].name, expected[i].matches[m].name)
            << what << " query " << i << " match " << m;
        EXPECT_EQ(actual[i].matches[m].distance,
                  expected[i].matches[m].distance)
            << what << " query " << i << " match " << m;
      }
    }
  }

  testing::TempDir dir_;
  std::vector<TimeSeries> data_;
  std::unique_ptr<Database> db_;
};

TEST_F(ServerTest, PingAndStats) {
  ServerOptions options;
  auto server = StartServer(options);
  auto client = Connect(*server);
  ASSERT_TRUE(client->Ping().ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->series, kNumSeries);
  EXPECT_EQ(stats->series_length, kLength);
  EXPECT_TRUE(stats->index_built);
  EXPECT_GT(stats->tree_entries, 0u);

  const DatabaseStats local = db_->StatsSnapshot();
  EXPECT_EQ(stats->series, local.series);
  EXPECT_EQ(stats->tree_entries, local.tree_entries);
  EXPECT_EQ(stats->tree_height, local.tree_height);
  EXPECT_EQ(stats->tree_dims, local.tree_dims);
  EXPECT_EQ(stats->index_epoch, local.index_epoch);
  EXPECT_EQ(stats->delta_entries, local.delta_entries);
  EXPECT_EQ(stats->merges_completed, local.merges_completed);
}

TEST_F(ServerTest, RemoteQueriesMatchInProcess) {
  ServerOptions options;
  auto server = StartServer(options);
  auto client = Connect(*server);

  QuerySpec smoothed;
  smoothed.transform =
      FeatureTransform::Spectral(transforms::MovingAverage(kLength, 4));
  for (size_t i = 0; i < 6; ++i) {
    const RealVec& query = data_[i * 11 % kNumSeries].values();
    const QuerySpec& spec = (i % 2 == 0) ? QuerySpec{} : smoothed;

    auto remote_range = client->Range(query, 4.0, spec);
    auto local_range = Range(db_.get(), query, 4.0, spec);
    ASSERT_TRUE(remote_range.ok() && local_range.ok());
    ASSERT_EQ(remote_range->size(), local_range->size());
    for (size_t m = 0; m < local_range->size(); ++m) {
      EXPECT_EQ((*remote_range)[m].id, (*local_range)[m].id);
      EXPECT_EQ((*remote_range)[m].name, (*local_range)[m].name);
      EXPECT_EQ((*remote_range)[m].distance, (*local_range)[m].distance);
    }

    auto remote_knn = client->Knn(query, 3, spec);
    auto local_knn = Knn(db_.get(), query, 3, spec);
    ASSERT_TRUE(remote_knn.ok() && local_knn.ok());
    ASSERT_EQ(remote_knn->size(), local_knn->size());
    for (size_t m = 0; m < local_knn->size(); ++m) {
      EXPECT_EQ((*remote_knn)[m].id, (*local_knn)[m].id);
      EXPECT_EQ((*remote_knn)[m].distance, (*local_knn)[m].distance);
    }
  }
}

TEST_F(ServerTest, RemoteBatchMatchesInProcess) {
  ServerOptions options;
  auto server = StartServer(options);
  auto client = Connect(*server);

  const std::vector<BatchQuery> batch = MakeBatch(24, 0);
  auto remote = client->RunBatch(batch);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = db_->RunBatch(batch, 1);
  ASSERT_TRUE(local.ok());
  ExpectResultsEq(*remote, *local, "batch");
}

TEST_F(ServerTest, RemoteErrorsMatchInProcess) {
  auto server = StartServer();
  auto client = Connect(*server);

  // Wrong query length: the per-query status must relay verbatim.
  const RealVec short_query(3, 1.0);
  auto remote = client->Range(short_query, 1.0);
  auto local = db_->RunBatch(
      {BatchQuery{BatchQueryKind::kRange, short_query, 1.0, 0, {}, {}}}, 1);
  ASSERT_TRUE(local.ok());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), (*local)[0].status.code());
  EXPECT_EQ(remote.status().message(), (*local)[0].status.message());

  // The same through the kNN path, whose check is its own.
  auto remote_knn = client->Knn(short_query, 1);
  auto local_knn = db_->RunBatch({BatchQuery::Knn(short_query, 1)}, 1);
  ASSERT_TRUE(local_knn.ok());
  ASSERT_FALSE(remote_knn.ok());
  EXPECT_EQ(remote_knn.status().code(), (*local_knn)[0].status.code());
  EXPECT_EQ(remote_knn.status().message(), (*local_knn)[0].status.message());
}

TEST_F(ServerTest, RemoteSelfJoinMatchesInProcess) {
  ServerOptions options;
  auto server = StartServer(options);
  auto client = Connect(*server);

  for (const std::optional<FeatureTransform>& transform :
       {std::optional<FeatureTransform>{},
        std::optional<FeatureTransform>{FeatureTransform::Spectral(
            transforms::MovingAverage(kLength, 4))}}) {
    auto remote = client->SelfJoin(4.0, transform);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto local =
        db_->SelfJoin(4.0, JoinMethod::kTreeMatch, transform, nullptr, 1);
    ASSERT_TRUE(local.ok());
    ASSERT_EQ(remote->size(), local->size());
    for (size_t i = 0; i < local->size(); ++i) {
      EXPECT_EQ((*remote)[i].first, (*local)[i].first);
      EXPECT_EQ((*remote)[i].second, (*local)[i].second);
      EXPECT_EQ((*remote)[i].distance, (*local)[i].distance);
    }
  }
}

TEST_F(ServerTest, TreeMatchJoinOfARootEntrySkippingALevelIsCorruption) {
  // A hostile index file whose root entry points at a leaf page: the
  // parallel join's seeds start one level below the root, so they must
  // check that level as every other descent does — in process at any
  // thread count, and through tsqd's SELF_JOIN.
  DatabaseOptions options;
  options.directory = dir_.path();
  options.name = "skipped";
  // 512-byte pages hold (512 - 16) / 104 = 4 entries of the 6-D layout:
  // a tree several levels deep.
  options.page_size = 512;
  auto db = Database::Create(options).value();
  for (const TimeSeries& s : data_) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  const size_t dims = db->index()->tree()->dims();
  ASSERT_GE(db->index()->tree()->height(), 3u);

  // Find the pages through a reader of the file's own, so the database's
  // pool stays cold until the first query reads the corrupt root.
  const std::string path = dir_.path() + "/skipped.idx";
  auto file = PageFile::Open(path).value();
  const auto read = [&file](PageId id) {
    Page page;
    EXPECT_TRUE(file->Read(id, &page).ok()) << "page " << id;
    return page;
  };
  // Meta page layout: u64 magic | u64 dims | u64 root | ...
  const PageId root = read(db->index()->tree()->meta_page()).ReadU64(16);
  const Page saved = read(root);
  rtree::Node root_node;
  ASSERT_TRUE(rtree::DeserializeNode(saved, dims, &root_node).ok());
  PageId leaf = root_node.entries[0].id;
  for (rtree::Node node;;) {
    ASSERT_TRUE(rtree::DeserializeNode(read(leaf), dims, &node).ok());
    if (node.IsLeaf()) break;
    leaf = node.entries[0].id;
  }
  rtree::Node skipping = root_node;
  skipping.entries[0].id = leaf;
  Page corrupt(saved.size());
  ASSERT_TRUE(rtree::SerializeNode(skipping, dims, &corrupt).ok());
  testing::OverwritePage(path, root, corrupt);

  for (const size_t threads : {1u, 4u}) {
    auto pairs = db->SelfJoin(4.0, JoinMethod::kTreeMatch, std::nullopt,
                              nullptr, threads);
    EXPECT_TRUE(pairs.status().IsCorruption())
        << "threads=" << threads << ": " << pairs.status().ToString();
  }
  {
    auto server = Server::Start(db.get(), ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Connect(**server);
    auto remote = client->SelfJoin(4.0, std::nullopt);
    EXPECT_TRUE(remote.status().IsCorruption()) << remote.status().ToString();
  }

  // Restored and reopened (a fresh pool), the same join answers again.
  testing::OverwritePage(path, root, saved);
  db.reset();
  db = Database::Open(options).value();
  EXPECT_TRUE(db->SelfJoin(4.0, JoinMethod::kTreeMatch, std::nullopt).ok());
}

TEST_F(ServerTest, RemoteInsertMatchesInProcessAndIsQueryable) {
  auto server = StartServer();
  auto client = Connect(*server);

  Rng rng(kSeed + 99);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (size_t i = 0; i < 6; ++i) {
    names.push_back("remote_" + std::to_string(i));
    values.push_back(testing::RandomRealVec(&rng, kLength));
  }
  auto ids = client->InsertBatch(names, values);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), names.size());
  EXPECT_EQ((*ids)[0], kNumSeries);  // dense ids continue the sequence
  EXPECT_EQ(db_->size(), kNumSeries + names.size());

  // The inserted series are immediately indexed and query-visible.
  for (size_t i = 0; i < names.size(); ++i) {
    auto rec = db_->Get((*ids)[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->name, names[i]);
    EXPECT_EQ(rec->values, values[i]);
    auto matches = client->Range(values[i], 1e-9);
    ASSERT_TRUE(matches.ok());
    ASSERT_FALSE(matches->empty());
    EXPECT_EQ((*matches)[0].id, (*ids)[i]);
  }

  // A batch rejected remotely leaves the database untouched, exactly as
  // the in-process call does.
  auto bad = client->InsertBatch({"too_short"}, {RealVec(3, 1.0)});
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(db_->size(), kNumSeries + names.size());
}

TEST_F(ServerTest, NonFiniteInsertAndQueryGetErrorsAndServerKeepsServing) {
  auto server = StartServer();
  auto client = Connect(*server);
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  // A NaN or +-Inf sample has no index point: acknowledged, it would sit
  // in the delta, where the next kNN's scan cannot build its rectangle.
  // Finite samples whose features overflow (a mean past DBL_MAX) are
  // refused the same way, and no id is reserved for a refused batch.
  for (const double bad : {kNaN, kInf, -kInf}) {
    RealVec values = data_[5].values();
    values[kLength / 2] = bad;
    auto ids = client->InsertBatch({"good", "hostile"},
                                   {data_[6].values(), values});
    ASSERT_FALSE(ids.ok()) << bad;
    EXPECT_TRUE(ids.status().IsInvalidArgument()) << ids.status().ToString();
  }
  auto overflow = client->InsertBatch({"huge"}, {RealVec(kLength, 1e308)});
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsInvalidArgument())
      << overflow.status().ToString();
  EXPECT_EQ(db_->size(), kNumSeries);

  // So are non-finite queries, thresholds and transforms, and a mean/std
  // window no rectangle can hold.
  RealVec nan_query = data_[7].values();
  nan_query[0] = kNaN;
  auto range = client->Range(nan_query, 1.0);
  ASSERT_FALSE(range.ok());
  EXPECT_TRUE(range.status().IsInvalidArgument());
  RealVec inf_query = data_[7].values();
  inf_query[1] = -kInf;
  auto knn = client->Knn(inf_query, 1);
  ASSERT_FALSE(knn.ok());
  EXPECT_TRUE(knn.status().IsInvalidArgument());
  auto nan_eps = client->Range(data_[7].values(), kNaN);
  ASSERT_FALSE(nan_eps.ok());
  EXPECT_TRUE(nan_eps.status().IsInvalidArgument());
  for (const TransformMode mode :
       {TransformMode::kBoth, TransformMode::kDataOnly}) {
    QuerySpec nan_transform;
    nan_transform.transform =
        FeatureTransform::ShiftScale(kLength, 0.0, kNaN);
    nan_transform.mode = mode;
    auto transformed = client->Range(data_[7].values(), 1.0, nan_transform);
    ASSERT_FALSE(transformed.ok());
    EXPECT_TRUE(transformed.status().IsInvalidArgument());
  }
  QuerySpec inverted;
  inverted.window = MeanStdWindow{1.0, -1.0, 0.0, 10.0};
  auto windowed = client->Range(data_[7].values(), 1.0, inverted);
  ASSERT_FALSE(windowed.ok());
  EXPECT_TRUE(windowed.status().IsInvalidArgument());

  // The server is still up, and kNN (which scans the delta) and REINDEX
  // still answer over a database that took a valid insert since.
  ASSERT_TRUE(client->Ping().ok());
  auto ids = client->InsertBatch({"fresh"}, {data_[9].values()});
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  auto nearest = client->Knn(data_[3].values(), 1);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  ASSERT_EQ(nearest->size(), 1u);
  EXPECT_EQ((*nearest)[0].id, 3u);
  ASSERT_TRUE(client->Reindex().ok());
  nearest = client->Knn(data_[9].values(), 2);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  ASSERT_EQ(nearest->size(), 2u);
  EXPECT_EQ((*nearest)[0].distance, 0.0);
  EXPECT_EQ((*nearest)[1].distance, 0.0);
}

TEST_F(ServerTest, RemoteReindexFoldsDeltaAndKeepsAnswers) {
  auto server = StartServer();
  auto client = Connect(*server);

  // Seed some unmerged entries through the remote insert path.
  Rng rng(kSeed + 123);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (size_t i = 0; i < 5; ++i) {
    names.push_back("unmerged_" + std::to_string(i));
    values.push_back(testing::RandomRealVec(&rng, kLength));
  }
  auto ids = client->InsertBatch(names, values);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();

  // Answers to compare across the merge; the query also walks the main
  // tree, so its pool and traversal counters are nonzero before it.
  auto pre = client->Range(values[2], 1e-9);
  ASSERT_TRUE(pre.ok());
  auto before = client->Stats();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->delta_entries, names.size());
  EXPECT_GT(before->nodes_visited, 0u);

  auto epoch = client->Reindex();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_GT(*epoch, before->index_epoch);

  auto after = client->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->delta_entries, 0u);
  EXPECT_EQ(after->tree_entries, kNumSeries + names.size());
  EXPECT_EQ(after->index_epoch, *epoch);
  EXPECT_GT(after->merges_completed, before->merges_completed);

  // Every counter is cumulative: none goes backwards when the merge
  // retires the main tree that held the pool and traversal counters.
  const auto counters = [](const DatabaseStats& s) {
    return std::map<std::string, uint64_t>{
        {"relation_records_read", s.relation_records_read},
        {"relation_bytes_read", s.relation_bytes_read},
        {"relation_bytes_written", s.relation_bytes_written},
        {"pool_hits", s.pool_hits},
        {"pool_misses", s.pool_misses},
        {"pool_evictions", s.pool_evictions},
        {"pool_disk_reads", s.pool_disk_reads},
        {"pool_disk_writes", s.pool_disk_writes},
        {"nodes_visited", s.nodes_visited},
        {"rect_transforms", s.rect_transforms},
        {"leaf_entries_tested", s.leaf_entries_tested},
        {"merges_completed", s.merges_completed},
        {"write_faults", s.write_faults},
        {"repairs_completed", s.repairs_completed},
    };
  };
  for (const auto& [name, value] : counters(*before)) {
    EXPECT_GE(counters(*after)[name], value) << name;
  }

  auto post = client->Range(values[2], 1e-9);
  ASSERT_TRUE(post.ok());
  ASSERT_EQ(post->size(), pre->size());
  for (size_t m = 0; m < pre->size(); ++m) {
    EXPECT_EQ((*post)[m].id, (*pre)[m].id);
    EXPECT_EQ((*post)[m].distance, (*pre)[m].distance);
  }

  // A reindex with nothing to fold is a cheap no-op on the same epoch.
  auto again = client->Reindex();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *epoch);
}

TEST_F(ServerTest, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
  auto server = StartServer();

  // Raw socket: send a CRC-valid frame whose payload decodes to garbage.
  auto client = Connect(*server);
  serde::Buffer payload;
  serde::PutU32(&payload, static_cast<uint32_t>(Verb::kPing));
  serde::PutU64(&payload, 21);
  serde::PutU32(&payload, 7);  // trailing garbage: semantic decode fails
  serde::Buffer frame;
  serde::PutU32(&frame, kFrameMagic);
  serde::PutU32(&frame, serde::Crc32(payload));
  serde::PutU64(&frame, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());

  // Smuggle the bad frame through a second raw connection.
  const int fd = RawConnect(server->port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  // The reply must be an ERROR frame, not a dropped connection.
  FrameReader reader;
  Reply reply;
  bool have_reply = false;
  uint8_t buf[4096];
  while (!have_reply) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server dropped a recoverable connection";
    ASSERT_TRUE(reader
                    .Feed(buf, static_cast<size_t>(n),
                          [&](const uint8_t* p, size_t size) {
                            TSQ_RETURN_IF_ERROR(DecodeReply(p, size, &reply));
                            have_reply = true;
                            return Status::OK();
                          })
                    .ok());
  }
  EXPECT_EQ(reply.code, ReplyCode::kError);
  EXPECT_EQ(reply.id, 21u);
  EXPECT_TRUE(reply.error.IsCorruption());
  ::close(fd);

  // The first (well-behaved) connection is unaffected.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(server->counters().protocol_errors, 1u);
}

TEST_F(ServerTest, BrokenFramingClosesConnection) {
  auto server = StartServer();
  const int fd = RawConnect(server->port());
  ASSERT_GE(fd, 0);
  const serde::Buffer junk(64, 0x5A);  // wrong magic: framing unrecoverable
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  uint8_t buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // blocks until close
  EXPECT_EQ(n, 0) << "expected EOF after framing violation";
  ::close(fd);
  EXPECT_GE(server->counters().protocol_errors, 1u);
}

TEST_F(ServerTest, ConcurrentClientsMatchGroundTruth) {
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesPerClient = 18;

  // Ground truth once, in-process, single-threaded.
  std::vector<std::vector<BatchResult>> expected;
  for (size_t c = 0; c < kClients; ++c) {
    auto local = db_->RunBatch(MakeBatch(kQueriesPerClient, c), 1);
    ASSERT_TRUE(local.ok());
    expected.push_back(std::move(*local));
  }

  auto server = StartServer();
  std::vector<std::thread> threads;
  std::vector<Status> client_status(kClients);
  std::vector<std::vector<BatchResult>> got(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        client_status[c] = client.status();
        return;
      }
      // Mix batched and single-query traffic per client.
      auto batch = (*client)->RunBatch(MakeBatch(kQueriesPerClient, c));
      if (!batch.ok()) {
        client_status[c] = batch.status();
        return;
      }
      got[c] = std::move(*batch);
      client_status[c] = (*client)->Ping();
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(client_status[c].ok())
        << "client " << c << ": " << client_status[c].ToString();
    ExpectResultsEq(got[c], expected[c], "client " + std::to_string(c));
  }
  const ServerCounters counters = server->counters();
  EXPECT_EQ(counters.connections_accepted, kClients);
  EXPECT_EQ(counters.busy_rejected, 0u);
  EXPECT_EQ(counters.requests_executed, kClients);  // one batch each
}

TEST_F(ServerTest, ConcurrentInsertClientsGetDenseIdsAndSequentialBytes) {
  // More INSERT clients than pool workers, all admitted at once: each
  // INSERT's InsertBatch runs on a pool worker and queues its helpers
  // behind the other requests, so batches reserve ids in one order and
  // their appends reach the queue in another. Every batch must still
  // get a dense id range, and the segment files must hold exactly the
  // bytes of the same records inserted one Insert at a time in id order
  // (the append deadlock argument in database.h, exercised).
  testing::Watchdog watchdog("concurrent INSERT clients", 120);
  const size_t clients = db_->thread_pool()->size() + 2;
  constexpr size_t kBatchesPerClient = 3;
  constexpr size_t kRecordsPerBatch = 40;
  ServerOptions options;
  options.max_inflight = 4 * clients;
  auto server = StartServer(options);

  struct Sent {
    SeriesId base = 0;
    std::vector<std::string> names;
    std::vector<RealVec> values;
  };
  std::vector<std::vector<Sent>> sent(clients);
  std::vector<Status> client_status(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        client_status[c] = client.status();
        return;
      }
      Rng rng(kSeed + 1000 + c);
      for (size_t b = 0; b < kBatchesPerClient; ++b) {
        Sent batch;
        for (size_t i = 0; i < kRecordsPerBatch; ++i) {
          batch.names.push_back("c" + std::to_string(c) + "_b" +
                                std::to_string(b) + "_" + std::to_string(i));
          batch.values.push_back(testing::RandomRealVec(&rng, kLength));
        }
        auto ids = (*client)->InsertBatch(batch.names, batch.values);
        if (!ids.ok()) {
          client_status[c] = ids.status();
          return;
        }
        for (size_t i = 0; i < ids->size(); ++i) {
          if ((*ids)[i] != ids->front() + i) {
            client_status[c] = Status::Corruption("ids not dense");
            return;
          }
        }
        batch.base = ids->front();
        sent[c].push_back(std::move(batch));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server->Stop();

  // The batches tile [kNumSeries, total) with no gap or overlap.
  const size_t total = kNumSeries + clients * kBatchesPerClient *
                                        kRecordsPerBatch;
  ASSERT_EQ(db_->size(), total);
  std::vector<const Sent*> by_base;
  for (size_t c = 0; c < clients; ++c) {
    ASSERT_TRUE(client_status[c].ok())
        << "client " << c << ": " << client_status[c].ToString();
    for (const Sent& batch : sent[c]) by_base.push_back(&batch);
  }
  std::sort(by_base.begin(), by_base.end(),
            [](const Sent* a, const Sent* b) { return a->base < b->base; });
  SeriesId next = kNumSeries;
  for (const Sent* batch : by_base) {
    ASSERT_EQ(batch->base, next);
    next += batch->names.size();
  }

  // The same records, one Insert at a time in id order.
  testing::TempDir seq_dir;
  DatabaseOptions seq_options;
  seq_options.directory = seq_dir.path();
  seq_options.name = "sequential";
  auto seq = Database::Create(seq_options).value();
  for (const TimeSeries& s : data_) {
    ASSERT_TRUE(seq->Insert(s.name(), s.values()).ok());
  }
  for (const Sent* batch : by_base) {
    for (size_t i = 0; i < batch->names.size(); ++i) {
      ASSERT_TRUE(seq->Insert(batch->names[i], batch->values[i]).ok());
    }
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(seq->Flush().ok());
  EXPECT_EQ(testing::RelationBytes(db_.get()),
            testing::RelationBytes(seq.get()));
}

TEST_F(ServerTest, AdmissionQueueFullRepliesBusy) {
  // One worker, admission bound 1, and a gate that parks the worker in
  // the first request: the second request must bounce with BUSY before
  // any engine work, and pings must still answer inline.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool release = false;

  ServerOptions options;
  options.max_inflight = 1;
  auto server = StartServer(options);
  server->SetExecutionHookForTesting([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  });

  auto blocked = Connect(*server);
  auto bounced = Connect(*server);

  std::thread slow([&] {
    auto matches = blocked->Range(data_[0].values(), 2.0);
    EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  });
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return entered; });
  }

  // The admitted request is parked on the only worker with inflight == 1.
  auto rejected = bounced->Range(data_[1].values(), 2.0);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  EXPECT_TRUE(bounced->Ping().ok()) << "pings must bypass admission";

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  slow.join();

  // With the worker free again the retry succeeds.
  auto retried = bounced->Range(data_[1].values(), 2.0);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(server->counters().busy_rejected, 1u);
}

TEST_F(ServerTest, StopDrainsInFlightQueries) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool release = false;

  ServerOptions options;
  auto server = StartServer(options);
  server->SetExecutionHookForTesting([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  });

  auto client = Connect(*server);
  Result<std::vector<Match>> matches = Status::Internal("not yet run");
  std::thread querier([&] { matches = client->Range(data_[0].values(), 4.0); });
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return entered; });
  }

  // Stop must block until the admitted query drains — release the gate
  // from a side thread after Stop is underway.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
    gate_cv.notify_all();
  });
  server->Stop();
  releaser.join();
  querier.join();

  // The in-flight query's reply arrived despite the shutdown.
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  auto expected = Range(db_.get(), data_[0].values(), 4.0);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(matches->size(), expected->size());

  // And the server really is gone.
  auto reconnect = Client::Connect("127.0.0.1", server->port());
  if (reconnect.ok()) {
    EXPECT_FALSE((*reconnect)->Ping().ok());
  }
}

// ---------------------------------------------------------------------------
// Multi-poller front end.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, LoopbackEqualityAtEveryPollerCount) {
  constexpr size_t kClients = 5;
  constexpr size_t kQueriesPerClient = 12;

  for (size_t pollers : {size_t{1}, size_t{2}, size_t{4}}) {
    ServerOptions options;
    options.pollers = pollers;
    auto server = StartServer(options);
    ASSERT_EQ(server->pollers(), pollers);

    // Ground truth is recomputed every iteration: the insert block below
    // grows the database between poller counts.
    std::vector<std::vector<BatchResult>> expected;
    for (size_t c = 0; c < kClients; ++c) {
      auto local = db_->RunBatch(MakeBatch(kQueriesPerClient, c), 1);
      ASSERT_TRUE(local.ok());
      expected.push_back(std::move(*local));
    }

    // Concurrent clients land on different pollers (round-robin) and
    // must each see exactly the single-threaded in-process answers.
    std::vector<std::thread> threads;
    std::vector<Status> client_status(kClients);
    std::vector<std::vector<BatchResult>> got(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = Client::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          client_status[c] = client.status();
          return;
        }
        auto batch = (*client)->RunBatch(MakeBatch(kQueriesPerClient, c));
        if (!batch.ok()) {
          client_status[c] = batch.status();
          return;
        }
        got[c] = std::move(*batch);
        client_status[c] = (*client)->Ping();
      });
    }
    for (std::thread& t : threads) t.join();
    const std::string what = "pollers " + std::to_string(pollers);
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(client_status[c].ok())
          << what << " client " << c << ": " << client_status[c].ToString();
      ExpectResultsEq(got[c], expected[c],
                      what + " client " + std::to_string(c));
    }

    // Every other verb through one more client on the same server.
    auto client = Connect(*server);

    const RealVec& probe = data_[3].values();
    auto remote_knn = client->Knn(probe, 4);
    auto local_knn = Knn(db_.get(), probe, 4);
    ASSERT_TRUE(remote_knn.ok() && local_knn.ok()) << what;
    ASSERT_EQ(remote_knn->size(), local_knn->size()) << what;
    for (size_t m = 0; m < local_knn->size(); ++m) {
      EXPECT_EQ((*remote_knn)[m].id, (*local_knn)[m].id) << what;
      EXPECT_EQ((*remote_knn)[m].distance, (*local_knn)[m].distance) << what;
    }

    auto remote_join = client->SelfJoin(3.0, std::nullopt);
    auto local_join =
        db_->SelfJoin(3.0, JoinMethod::kTreeMatch, std::nullopt, nullptr, 1);
    ASSERT_TRUE(remote_join.ok() && local_join.ok()) << what;
    ASSERT_EQ(remote_join->size(), local_join->size()) << what;
    for (size_t i = 0; i < local_join->size(); ++i) {
      EXPECT_EQ((*remote_join)[i].first, (*local_join)[i].first) << what;
      EXPECT_EQ((*remote_join)[i].second, (*local_join)[i].second) << what;
      EXPECT_EQ((*remote_join)[i].distance, (*local_join)[i].distance)
          << what;
    }

    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << what << ": " << stats.status().ToString();
    const DatabaseStats local_stats = db_->StatsSnapshot();
    EXPECT_EQ(stats->series, local_stats.series) << what;
    EXPECT_EQ(stats->tree_entries, local_stats.tree_entries) << what;
    EXPECT_EQ(stats->index_epoch, local_stats.index_epoch) << what;
    EXPECT_EQ(stats->delta_entries, local_stats.delta_entries) << what;

    // Inserts (names unique per iteration) assign dense ids and are
    // immediately visible in the shared database.
    Rng rng(kSeed + 500 + pollers);
    std::vector<std::string> names;
    std::vector<RealVec> values;
    for (size_t i = 0; i < 3; ++i) {
      names.push_back("p" + std::to_string(pollers) + "_" +
                      std::to_string(i));
      values.push_back(testing::RandomRealVec(&rng, kLength));
    }
    const size_t size_before = db_->size();
    auto ids = client->InsertBatch(names, values);
    ASSERT_TRUE(ids.ok()) << what << ": " << ids.status().ToString();
    ASSERT_EQ(ids->size(), names.size()) << what;
    EXPECT_EQ((*ids)[0], size_before) << what;
    for (size_t i = 0; i < names.size(); ++i) {
      auto rec = db_->Get((*ids)[i]);
      ASSERT_TRUE(rec.ok()) << what;
      EXPECT_EQ(rec->name, names[i]) << what;
      EXPECT_EQ(rec->values, values[i]) << what;
    }

    auto epoch = client->Reindex();
    ASSERT_TRUE(epoch.ok()) << what << ": " << epoch.status().ToString();
    EXPECT_EQ(db_->StatsSnapshot().index_epoch, *epoch) << what;

    // Error statuses relay verbatim at every poller count too.
    const RealVec short_query(8, 0.0);
    auto remote_bad = client->Knn(short_query, 1);
    auto local_bad = db_->RunBatch({BatchQuery::Knn(short_query, 1)}, 1);
    ASSERT_TRUE(local_bad.ok()) << what;
    ASSERT_FALSE(remote_bad.ok()) << what;
    EXPECT_EQ(remote_bad.status().code(), (*local_bad)[0].status.code())
        << what;
    EXPECT_EQ(remote_bad.status().message(), (*local_bad)[0].status.message())
        << what;
  }
}

TEST_F(ServerTest, PipelinedFramesInOneSendAllAnswer) {
  constexpr size_t kFrames = 6;
  for (size_t pollers : {size_t{1}, size_t{2}, size_t{4}}) {
    ServerOptions options;
    options.pollers = pollers;
    auto server = StartServer(options);

    // Many requests in one send(): the poller's FrameReader must slice
    // them apart from a single recv and admit each one.
    serde::Buffer stream;
    std::map<uint64_t, std::pair<RealVec, double>> outstanding;
    for (size_t i = 0; i < kFrames; ++i) {
      const uint64_t id = 100 + i;
      const RealVec& query = data_[(i * 7) % kNumSeries].values();
      const double epsilon = (i % 2 == 0) ? 2.0 : 5.0;
      const serde::Buffer frame = EncodeRangeFrame(id, query, epsilon);
      stream.insert(stream.end(), frame.begin(), frame.end());
      outstanding.emplace(id, std::make_pair(query, epsilon));
    }
    const int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(stream.size()));

    // Requests complete out of order across workers; match by id.
    std::vector<Reply> replies;
    ASSERT_TRUE(ReadReplies(fd, kFrames, &replies))
        << "pollers " << pollers;
    ::close(fd);
    for (const Reply& reply : replies) {
      auto it = outstanding.find(reply.id);
      ASSERT_NE(it, outstanding.end())
          << "pollers " << pollers << ": duplicate or unknown reply id "
          << reply.id;
      EXPECT_EQ(reply.code, ReplyCode::kOk);
      auto expected = Range(db_.get(), it->second.first, it->second.second);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(reply.results.size(), 1u);
      ASSERT_EQ(reply.results[0].matches.size(), expected->size());
      for (size_t m = 0; m < expected->size(); ++m) {
        EXPECT_EQ(reply.results[0].matches[m].id, (*expected)[m].id);
        EXPECT_EQ(reply.results[0].matches[m].distance,
                  (*expected)[m].distance);
      }
      outstanding.erase(it);
    }
    EXPECT_TRUE(outstanding.empty()) << "pollers " << pollers;
  }
}

TEST_F(ServerTest, FrameSplitAcrossManySendsDecodes) {
  for (size_t pollers : {size_t{1}, size_t{2}}) {
    ServerOptions options;
    options.pollers = pollers;
    auto server = StartServer(options);
    const int fd = RawConnect(server->port());
    ASSERT_GE(fd, 0);

    // One frame dribbled out in 16-byte chunks: the reader must buffer
    // across many recv calls before the single request materializes.
    const RealVec& query = data_[5].values();
    const serde::Buffer frame = EncodeRangeFrame(77, query, 3.0);
    for (size_t off = 0; off < frame.size(); off += 16) {
      const size_t n = std::min<size_t>(16, frame.size() - off);
      ASSERT_EQ(::send(fd, frame.data() + off, n, MSG_NOSIGNAL),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<Reply> replies;
    ASSERT_TRUE(ReadReplies(fd, 1, &replies)) << "pollers " << pollers;
    ::close(fd);
    EXPECT_EQ(replies[0].id, 77u);
    EXPECT_EQ(replies[0].code, ReplyCode::kOk);
    auto expected = Range(db_.get(), query, 3.0);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(replies[0].results.size(), 1u);
    EXPECT_EQ(replies[0].results[0].matches.size(), expected->size());
  }
}

TEST_F(ServerTest, ConnectionChurnStress) {
  ServerOptions options;
  options.pollers = 2;
  auto server = StartServer(options);

  // Hundreds of short-lived connections across threads: exercises the
  // accept handoff inboxes and the retire pass under TSan.
  constexpr size_t kThreads = 4;
  constexpr size_t kConnsPerThread = 50;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kConnsPerThread; ++i) {
        auto client = Client::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          failures.fetch_add(1);
          continue;
        }
        Status status = (*client)->Ping();
        if (status.ok() && i % 8 == 3) {
          status =
              (*client)
                  ->Range(data_[(t * 13 + i) % kNumSeries].values(), 2.0)
                  .status();
        }
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  constexpr size_t kTotal = kThreads * kConnsPerThread;
  EXPECT_EQ(server->counters().connections_accepted, kTotal);
  // Retirement is asynchronous to the client-side close.
  EXPECT_TRUE(WaitUntil(
      [&] { return server->counters().connections_closed >= kTotal; }))
      << server->counters().connections_closed << " of " << kTotal
      << " connections retired";
}

// ---------------------------------------------------------------------------
// Front-end failure modes.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, FdExhaustionPausesAcceptAndRecovers) {
  ServerOptions options;
  options.pollers = 1;
  auto server = StartServer(options);

  // A control connection established while fds are plentiful.
  auto control = Connect(*server);
  ASSERT_TRUE(control->Ping().ok());

  // Create the starved peer's socket BEFORE exhausting fds — rlimit only
  // constrains new allocations, existing fds keep working. The limit
  // must stay above the poller's poll() set size (poll rejects
  // nfds > RLIMIT_NOFILE with EINVAL), so lower it moderately and then
  // occupy every free slot below it.
  const int starved = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(starved, 0);
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit small = old_limit;
  small.rlim_cur = 256;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &small), 0);
  std::vector<int> hogs;
  for (;;) {
    const int hog = ::open("/dev/null", O_RDONLY);
    if (hog < 0) break;
    hogs.push_back(hog);
  }
  ASSERT_EQ(errno, EMFILE);
  ASSERT_FALSE(hogs.empty());

  // The TCP handshake completes in the kernel backlog regardless; the
  // server's accept4 fails with EMFILE.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(starved, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);

  // The un-fixed server spun on the permanently-readable listener —
  // thousands of accept attempts in this window. The fixed one pauses
  // the listener for kAcceptBackoffMs per failed attempt, so the episode
  // count is bounded by the window length.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t backoffs = server->counters().accept_backoffs;
  EXPECT_GE(backoffs, 1u);
  EXPECT_LE(backoffs, 300 / kAcceptBackoffMs + 4);

  // Existing connections keep answering throughout the exhaustion.
  EXPECT_TRUE(control->Ping().ok());

  for (int hog : hogs) ::close(hog);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  // With fds available again the listener re-arms and drains the
  // backlog: the starved peer finally gets accepted...
  EXPECT_TRUE(WaitUntil(
      [&] { return server->counters().connections_accepted >= 2; }))
      << "backlogged connection never accepted after rlimit restore";
  // ...and a brand-new client connects and is served.
  auto late = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_TRUE((*late)->Ping().ok());
  ::close(starved);
}

TEST_F(ServerTest, ClientIoTimeoutOnHungServerReturnsUnavailable) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool release = false;

  // The only worker parks at the gate: from the client's side the server
  // accepted the request and went silent.
  ServerOptions options;
  auto server = StartServer(options);
  server->SetExecutionHookForTesting([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  });

  ClientOptions copts;
  copts.io_timeout_ms = 200;
  auto client = Client::Connect("127.0.0.1", server->port(), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  auto matches = (*client)->Range(data_[0].values(), 2.0);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(matches.ok()) << "request against a parked worker succeeded";
  EXPECT_TRUE(matches.status().IsUnavailable())
      << matches.status().ToString();
  // Pre-fix this blocked forever; the timeout must bound it.
  EXPECT_LT(elapsed_ms, 5000);

  // The reply may still arrive later, so the connection is poisoned.
  EXPECT_FALSE((*client)->Ping().ok());

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  server->Stop();  // drains the now-released request
}

TEST_F(ServerTest, ResetConnectionRetiresImmediately) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool entered = false;
  bool release = false;

  ServerOptions options;
  options.pollers = 1;
  auto server = StartServer(options);
  server->SetExecutionHookForTesting([&] {
    std::unique_lock<std::mutex> lock(gate_mutex);
    entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release; });
  });

  // Admit one request, park it on the worker, then reset the connection:
  // SO_LINGER{1,0} turns close() into an RST.
  const int fd = RawConnect(server->port());
  ASSERT_GE(fd, 0);
  const serde::Buffer frame = EncodeRangeFrame(9, data_[0].values(), 2.0);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return entered; }));
  }
  const linger hard_close{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close,
                         sizeof(hard_close)),
            0);
  ::close(fd);

  // Pre-fix the fatal recv error only stopped reads, and the connection
  // lingered until its parked reply flushed. It must retire while the
  // worker is still at the gate: the peer is gone.
  EXPECT_TRUE(WaitUntil(
      [&] { return server->counters().connections_closed >= 1; }))
      << "reset connection lingered behind a parked request";

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  server->Stop();
}

TEST(ClientConnectTimeoutTest, UnacceptedBacklogTimesOut) {
  // A listener that never accepts: once the backlog is full, a connect
  // gets no completion and Client::Connect must time out, not hang.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t port = ntohs(addr.sin_port);

  ClientOptions copts;
  copts.connect_timeout_ms = 200;
  std::vector<std::unique_ptr<Client>> parked;  // keep backlog slots filled
  bool timed_out = false;
  for (size_t i = 0; i < 16 && !timed_out; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto client = Client::Connect("127.0.0.1", port, copts);
    if (client.ok()) {
      parked.push_back(std::move(*client));
      continue;
    }
    if (!client.status().IsUnavailable()) {
      ::close(lfd);
      GTEST_SKIP() << "environment rejects backlog-overflow connects: "
                   << client.status().ToString();
    }
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed_ms, 150) << "timed out suspiciously early";
    EXPECT_LT(elapsed_ms, 5000) << "timeout did not bound the connect";
    timed_out = true;
  }
  ::close(lfd);
  if (!timed_out) {
    GTEST_SKIP() << "kernel completed 16 handshakes on a backlog of 0";
  }
}

}  // namespace
}  // namespace server
}  // namespace tsq
