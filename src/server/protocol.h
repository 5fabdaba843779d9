// Copyright (c) 2026 The tsq Authors.
//
// The tsqd wire protocol: a compact, CRC-checked binary framing over TCP
// that carries the Database API — range/kNN queries (single or batched),
// bulk insert, self-join, reindex, flush, repair, stats, metrics and
// ping — between the blocking client (src/server/client.h) and the tsqd
// server (src/server/server.h).
//
// Framing. Every message (request or reply) travels as one frame:
//
//     u32 magic 'TSQ3' | u32 payload_crc | u64 payload_len | payload
//
// — deliberately the same shape as the relation's record frame
// (storage/serde.h), and built from the same little-endian codecs, so
// bytes are identical across platforms. The CRC covers the payload only;
// a frame is processed only after the whole payload arrived and its CRC
// verified. A bad magic or CRC means the stream is desynchronized and
// the connection must be dropped; a CRC-valid payload that fails to
// decode is reported back as an ERROR reply and the connection lives on
// (framing is still intact).
//
// Payloads. A request payload is
//
//     u32 verb | u64 request_id | verb-specific body
//
// and a reply payload is
//
//     u32 reply_code | u32 verb | u64 request_id | code/verb-specific body
//
// The request id is chosen by the client and echoed verbatim, so a
// pipelining client can match replies that tsqd completed out of order.
//
// Every verb has exactly one body layout (docs/WIRE_PROTOCOL.md and
// protocol.cpp give the field order): a query always carries its kNN
// options, a result always carries the approx and stage-trace tails of its
// QueryStats, and an OK STATS reply always carries ServerCounters. There
// is no version handshake; a change to any layout bumps kFrameMagic, so a
// peer built against another layout is dropped at the frame header.
// Reply code kBusy is the backpressure signal: the server's admission
// queue was full and the request was rejected *before* any engine work —
// the client surfaces it as Status::Unavailable and may retry.
//
// Every decoder in this file consumes untrusted bytes. Decoding never
// aborts and never over-allocates past the received payload: all lengths
// are validated against the remaining span (see storage/serde.h), and
// cross-field invariants (e.g. a transform's a/b vectors must have equal
// length) are checked before constructing library types that TSQ_CHECK
// them.

#ifndef TSQ_SERVER_PROTOCOL_H_
#define TSQ_SERVER_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "engine/query_engine.h"
#include "storage/serde.h"

namespace tsq {
namespace server {

/// Frame constants.
inline constexpr uint32_t kFrameMagic = 0x33515354;  // "TSQ3" on the wire
inline constexpr size_t kFrameHeaderBytes = 16;
/// Hard ceiling on a payload a peer may declare; connections advertising
/// more are dropped as corrupt before any allocation happens.
inline constexpr uint64_t kMaxPayloadBytes = 1ull << 30;

/// What a request asks tsqd to do.
enum class Verb : uint8_t {
  kPing = 1,      ///< liveness probe, empty body
  kStats = 2,     ///< Database::StatsSnapshot()
  kQuery = 3,     ///< one BatchQuery (range/kNN)
  kBatch = 4,     ///< a vector of BatchQuery, answered positionally
  kInsert = 5,    ///< bulk insert (Database::InsertBatch)
  kSelfJoin = 6,  ///< parallel self-join
  kReindex = 7,   ///< fold the delta into a fresh main tree, empty body
  kFlush = 8,     ///< Database::Flush() durability barrier, empty body
  kRepair = 9,    ///< Database::Repair() after a write fault, empty body
  kMetrics = 10,  ///< Prometheus-style metrics exposition, empty body
};

/// Reply disposition.
enum class ReplyCode : uint8_t {
  kOk = 0,
  kError = 1,  ///< body carries the Status
  kBusy = 2,   ///< admission queue full; retry later (empty body)
};

/// Monitoring counters (the values of the server's own registry
/// counters, snapshot by value; carried on the wire after every OK
/// kStats reply's DatabaseStats).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;  ///< retired (EOF, broken, or drained)
  uint64_t frames_received = 0;     ///< CRC-valid frames decoded
  uint64_t requests_executed = 0;   ///< admitted and run on the pool
  uint64_t busy_rejected = 0;       ///< BUSY replies sent
  uint64_t protocol_errors = 0;     ///< framing faults + semantic decode fails
  uint64_t accept_backoffs = 0;     ///< listener pauses on fd exhaustion
};

/// A decoded request — `verb` selects which fields are meaningful.
struct Request {
  Verb verb = Verb::kPing;
  uint64_t id = 0;
  /// kQuery (exactly one element) / kBatch.
  std::vector<engine::BatchQuery> queries;
  /// kInsert.
  std::vector<std::string> insert_names;
  std::vector<RealVec> insert_values;
  /// kSelfJoin.
  double epsilon = 0.0;
  std::optional<FeatureTransform> transform;
};

/// A decoded reply — `code` + `verb` select which fields are meaningful.
struct Reply {
  ReplyCode code = ReplyCode::kOk;
  Verb verb = Verb::kPing;
  uint64_t id = 0;
  /// kError.
  Status error;
  /// kQuery (exactly one element) / kBatch.
  std::vector<engine::BatchResult> results;
  /// kInsert: ids assigned are insert_base .. insert_base+insert_count-1.
  SeriesId insert_base = 0;
  uint64_t insert_count = 0;
  /// kSelfJoin.
  std::vector<JoinPair> pairs;
  /// kStats.
  DatabaseStats stats;
  ServerCounters server_counters;
  /// kReindex: the epoch whose main tree covers every merged series.
  uint64_t reindex_epoch = 0;
  /// kMetrics: the Prometheus-style text exposition.
  std::string metrics_text;
};

/// Appends the complete frame (header + payload) for a request/reply.
void EncodeRequest(const Request& request, serde::Buffer* frame);
void EncodeReply(const Reply& reply, serde::Buffer* frame);

/// Decodes a CRC-verified payload (the bytes after the frame header).
/// Corruption on any malformed field; the payload must be consumed
/// exactly (trailing garbage is malformed too).
Status DecodeRequest(const uint8_t* payload, size_t size, Request* out);
Status DecodeReply(const uint8_t* payload, size_t size, Reply* out);

/// Incremental frame assembly over an arbitrarily-chunked byte stream —
/// the per-connection reader state machine. Feed() buffers input and
/// invokes `sink(payload, size)` once per completed, CRC-verified frame
/// (possibly several times per call). A non-OK return — bad magic, bad
/// CRC, a declared payload above the limit, or a non-OK sink — poisons
/// the reader: the stream has lost framing and the connection must be
/// closed (every later Feed returns the same error).
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  Status Feed(const uint8_t* data, size_t size,
              const std::function<Status(const uint8_t*, size_t)>& sink);

  /// Bytes buffered towards the next (incomplete) frame.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  size_t max_payload_;
  serde::Buffer buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  Status fault_;    // sticky decode failure
};

}  // namespace server
}  // namespace tsq

#endif  // TSQ_SERVER_PROTOCOL_H_
