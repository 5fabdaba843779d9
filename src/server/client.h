// Copyright (c) 2026 The tsq Authors.
//
// Blocking C++ client for tsqd: one TCP connection, one outstanding
// request at a time, method-per-verb mirrors of the Database API. The
// remote methods return exactly what the corresponding in-process call
// returns — Range() relays the per-query status and matches a local
// Database::RunBatch would produce for the same query — so a caller can
// swap a Database* for a Client* without changing its error handling.
//
// BUSY replies (the server's admission queue was full) surface as
// Status::Unavailable; the request did no engine work and is safe to
// retry. A Corruption status from any call means the reply stream broke
// framing — the connection is poisoned and must be reconnected.
//
// Retries. With ClientOptions::max_retries > 0 the client retries
// idempotent verbs — everything except insert — on Unavailable (BUSY or
// a transport timeout), sleeping a capped exponential backoff with
// jitter between attempts and transparently reconnecting first when the
// failure poisoned the connection. Inserts are never retried: a timeout
// leaves it unknown whether the server assigned ids, and a blind resend
// could store the batch twice.
//
// Timeouts. By default every call blocks indefinitely — a hung server
// (e.g. a stuck drain) hangs the caller in recv. ClientOptions bounds
// that: `connect_timeout_ms` caps Connect (non-blocking connect + poll),
// `io_timeout_ms` caps each send/recv (SO_SNDTIMEO/SO_RCVTIMEO). An
// expired timeout returns Status::Unavailable — and, unlike a BUSY
// bounce, poisons the connection: a reply may still be in flight, so the
// stream position is indeterminate and the client must reconnect before
// issuing another request. Both default to 0 (off), preserving the
// original blocking behavior exactly.
//
// Thread-compatibility: a Client is NOT thread-safe; give each thread its
// own connection (connections are cheap, and tsqd multiplexes them onto
// its execution pool server-side).

#ifndef TSQ_SERVER_CLIENT_H_
#define TSQ_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "server/protocol.h"

namespace tsq {
namespace server {

/// Client construction parameters. Zero means "no timeout" (block
/// forever), the pre-timeout behavior.
struct ClientOptions {
  /// Cap on establishing the TCP connection; expiry is
  /// Status::Unavailable from Connect.
  uint64_t connect_timeout_ms = 0;
  /// Cap on each individual send/recv inside a round trip; expiry is
  /// Status::Unavailable and poisons the connection (reconnect to
  /// continue).
  uint64_t io_timeout_ms = 0;
  /// Retries after the first attempt for idempotent verbs answered with
  /// Unavailable (BUSY backpressure or a transport timeout). 0 (the
  /// default) preserves the no-retry behavior.
  uint32_t max_retries = 0;
  /// Backoff before the first retry; doubles per retry, capped at
  /// 1000 ms, with uniform jitter over [backoff/2, backoff].
  uint64_t retry_base_ms = 10;
};

/// A blocking tsqd connection.
class Client {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(Client);
  ~Client();

  /// Connects to a tsqd instance (IPv4 dotted quad).
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port,
      const ClientOptions& options = {});

  /// Liveness probe. Served inline by the server's event thread — never
  /// BUSY, even when the execution pool is saturated.
  Status Ping();

  /// Remote Database::StatsSnapshot(). Every STATS reply also carries the
  /// server's own monitoring counters; a non-null `counters` receives them.
  Result<DatabaseStats> Stats(ServerCounters* counters = nullptr);

  /// Remote metrics scrape: the server's Prometheus-style text
  /// exposition. Served inline like Ping — never BUSY — so monitoring
  /// works when the admission queue is saturated.
  Result<std::string> Metrics();

  /// Remote single queries; match engine::SingleResult of a one-query
  /// Database::RunBatch (per-query status unwrapped, the same code).
  Result<std::vector<Match>> Range(const RealVec& query, double epsilon,
                                   const QuerySpec& spec = {});
  /// `options` selects approximate kNN (exact by default); when `stats`
  /// is non-null the per-query stats — including the observed
  /// (candidates, pruned, max_error) — are copied out.
  Result<std::vector<Match>> Knn(const RealVec& query, size_t k,
                                 const QuerySpec& spec = {},
                                 const KnnOptions& options = {},
                                 QueryStats* stats = nullptr);

  /// Remote Database::RunBatch: results[i] answers queries[i], statuses
  /// per query.
  Result<std::vector<engine::BatchResult>> RunBatch(
      const std::vector<engine::BatchQuery>& queries);

  /// Remote Database::InsertBatch; returns the assigned dense ids.
  Result<std::vector<SeriesId>> InsertBatch(
      const std::vector<std::string>& names,
      const std::vector<RealVec>& values);

  /// Remote Database::SelfJoin with JoinMethod::kTreeMatch.
  Result<std::vector<JoinPair>> SelfJoin(
      double epsilon, const std::optional<FeatureTransform>& transform);

  /// Remote Database::Reindex: folds the delta into a fresh main tree on
  /// the server and returns the published epoch. Queries keep answering
  /// throughout the merge.
  Result<uint64_t> Reindex();

  /// Remote Database::Flush: a durability barrier at the server's
  /// configured durability level.
  Status Flush();

  /// Remote Database::Repair: recovers a write-fault-degraded database
  /// and lifts its read-only state (see Database::Repair).
  Status Repair();

 private:
  Client(int fd, std::string host, uint16_t port,
         const ClientOptions& options)
      : fd_(fd), host_(std::move(host)), port_(port), options_(options) {}

  /// Sends `request` (id assigned here) and blocks for its reply.
  /// Translates kBusy to Unavailable and kError to the carried status.
  Result<Reply> RoundTrip(Request request);

  /// RoundTrip plus the retry policy: up to max_retries extra attempts
  /// for idempotent verbs on Unavailable, with capped exponential
  /// backoff + jitter, reconnecting when the connection is poisoned.
  Result<Reply> RoundTripWithRetry(Request request);

  /// One QUERY frame carrying `query`, unwrapped by engine::SingleResult.
  Result<engine::BatchResult> Query(engine::BatchQuery query);

  /// Replaces the poisoned connection with a fresh one to the original
  /// host:port and clears the sticky fault.
  Status Reconnect();

  Status SendAll(const serde::Buffer& bytes);

  int fd_;
  const std::string host_;
  const uint16_t port_;
  const ClientOptions options_;
  uint64_t next_id_ = 1;
  FrameReader reader_;
  Status fault_;  // sticky stream failure
  uint64_t jitter_state_ = 0;  // lazily seeded xorshift for retry jitter
};

}  // namespace server
}  // namespace tsq

#endif  // TSQ_SERVER_CLIENT_H_
