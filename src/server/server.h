// Copyright (c) 2026 The tsq Authors.
//
// tsqd — the concurrent network server subsystem: exposes one Database
// over TCP using the wire protocol of src/server/protocol.h, turning the
// in-process engine (concurrent RunBatch, parallel self-join, parallel
// ingest) into a service that remote clients share.
//
// Architecture. Socket handling is sharded across N poller threads
// (`ServerOptions::pollers`, default min(4, hardware threads)). Poller 0
// additionally owns the listener: it accepts new sockets and round-robins
// them across all pollers through a small per-poller inbox (mutex +
// vector of fds) plus a per-poller wake pipe. From adoption onward a
// connection belongs to exactly one poller for its whole life: that
// poller runs its FrameReader state machine over non-blocking reads,
// flushes its reply bytes, and retires it — no connection state is ever
// shared between pollers. Completed requests are submitted to the
// Database's own thread pool (Database::thread_pool), whose workers call
// the Database's thread-safe entry points (RunBatch, InsertBatch,
// SelfJoin, StatsSnapshot) with the default thread cap — so no poller
// ever blocks on engine work, a slow query never stalls another
// connection's reads, and a request that fans out (BATCH, INSERT,
// SELF_JOIN, REINDEX) drives its own work on the worker that took it,
// with helpers from the same pool when they are free. tsqd adds no
// execution threads of its own: a process serving one Database runs its
// pollers and that pool. Workers append each finished reply as one whole
// frame to the owning connection's write buffer (under that
// connection's mutex) and wake the owning poller through its pipe;
// frames never interleave, and a pipelining client matches replies by
// request id since requests may complete out of order.
//
// Backpressure. Admission is global and bounded: at most `max_inflight`
// requests may be queued-or-executing at once across all pollers. A
// request arriving beyond that is answered immediately with a BUSY reply
// (protocol::ReplyCode::kBusy) by the owning poller — no engine work, no
// unbounded buffering — which the client surfaces as
// Status::Unavailable. Pings are answered inline by the owning poller
// and never rejected, so liveness probes work under full load.
//
// Fd exhaustion. When accept4 fails for lack of resources
// (EMFILE/ENFILE/ENOBUFS/ENOMEM) the listener stays readable, which
// would otherwise spin the accept poller at 100% CPU. Instead the
// listener is taken out of the poll set for a short backoff window
// (kAcceptBackoffMs) and re-armed afterwards; pending connections wait
// in the kernel backlog and are accepted once fds are available again.
// Each pause increments ServerCounters::accept_backoffs.
//
// Errors. A connection that breaks framing (bad magic/CRC/oversized
// frame) is beyond recovery: reading stops at once, already-admitted
// requests still deliver their replies, then the socket closes. A
// CRC-valid payload that fails semantic decode gets an ERROR reply and
// the connection continues. A fatal transport error (ECONNRESET from
// recv, POLLERR, a failed send) marks the connection broken and retires
// it immediately — the peer is gone, so no attempt is made to flush
// replies to it; in-flight requests finish harmlessly against their own
// Connection reference.
//
// Shutdown. Stop() (also run by the destructor) stops accepting and
// reading on every poller, waits for every admitted request to finish
// executing, flushes each connection's remaining reply bytes (bounded by
// drain_timeout_ms for peers that stopped reading), joins the pollers,
// then waits until every task it submitted to the pool has returned
// before closing the wake pipes those tasks write to — in-flight queries
// are drained, never dropped. The pool itself belongs to the Database
// and outlives the server.

#ifndef TSQ_SERVER_SERVER_H_
#define TSQ_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "server/protocol.h"

namespace tsq {
namespace server {

/// How long the accept poller stops polling the listener after an
/// fd-exhaustion accept failure before re-arming it.
inline constexpr uint64_t kAcceptBackoffMs = 50;

/// Server construction parameters.
struct ServerOptions {
  /// Listen address (IPv4 dotted quad).
  std::string host = "127.0.0.1";
  /// Listen port; 0 asks the kernel for an ephemeral port — read the
  /// actual one back with Server::port().
  uint16_t port = 0;
  /// Poller threads sharing the socket work; 0 = min(4, hardware
  /// threads). Poller 0 also owns the listener and round-robins accepted
  /// connections across all pollers.
  size_t pollers = 0;
  /// Admission bound: requests queued-or-executing at once (global
  /// across pollers); beyond this a request is rejected with BUSY
  /// instead of buffered.
  size_t max_inflight = 128;
  /// Largest frame payload a client may send.
  size_t max_frame_bytes = 64u << 20;
  /// How long Stop() keeps flushing reply bytes to a peer that has
  /// stopped reading before dropping the connection.
  uint64_t drain_timeout_ms = 5000;
};

/// A running tsqd instance bound to one Database. All public methods are
/// thread-safe. The Database must outlive the server; tsqd adds no calls
/// the Database contract does not already allow concurrently (see
/// core/database.h).
class Server {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(Server);
  ~Server();

  /// Binds, listens and starts the poller threads; requests execute on
  /// the database's pool. The database may be queried in-process
  /// concurrently; index-building must follow the Database contract (no
  /// concurrent BuildIndex).
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               const ServerOptions& options);

  /// The bound port (resolves port 0 to the kernel-assigned one).
  uint16_t port() const { return port_; }

  /// The resolved poller thread count.
  size_t pollers() const { return pollers_.size(); }

  /// Graceful shutdown; idempotent, safe from any thread. Blocks until
  /// admitted requests drained and sockets closed.
  void Stop();

  /// Counter snapshot.
  ServerCounters counters() const;

  /// Test hook: runs at the start of every admitted request on the pool
  /// worker, before any Database call. Lets tests hold workers at a gate
  /// to deterministically fill the admission queue (BUSY path) or to race
  /// Stop() against in-flight queries. Call before serving traffic.
  void SetExecutionHookForTesting(std::function<void()> hook);

 private:
  struct Connection;

  /// One socket-handling thread and everything it owns. `connections` is
  /// touched only by the owning poller thread; `inbox` is the only
  /// cross-poller handoff (acceptor pushes fds under `inbox_mutex`, the
  /// owner adopts them at the top of its loop).
  struct Poller {
    size_t index = 0;
    int wake_fds[2] = {-1, -1};  // self-pipe: workers/acceptor -> poller
    std::thread thread;
    std::mutex inbox_mutex;
    std::vector<int> inbox;  // accepted fds awaiting adoption
    std::vector<std::shared_ptr<Connection>> connections;
  };

  explicit Server(Database* db, ServerOptions options);

  void PollerLoop(Poller* self);
  static void WakePoller(Poller* poller);
  /// Handles one CRC-verified payload from `conn` (owning poller thread).
  Status HandleFrame(const std::shared_ptr<Connection>& conn,
                     const uint8_t* payload, size_t size);
  /// Renders the Prometheus-style exposition: refreshes the point-in-time
  /// gauges, then dumps the process-wide registry followed by this
  /// server's own.
  std::string RenderMetricsText();
  /// Executes an admitted request on a pool worker and queues its reply.
  void ExecuteRequest(const std::shared_ptr<Connection>& conn,
                      const std::shared_ptr<Request>& request);
  /// Appends one encoded reply frame to the connection's write buffer.
  void QueueReply(const std::shared_ptr<Connection>& conn,
                  const Reply& reply);

  Database* const db_;
  const ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Poller>> pollers_;
  // Tasks submitted to the pool and not yet returned: a task's last act
  // is its decrement, so at zero none can touch this server again.
  std::atomic<size_t> tasks_{0};
  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;
  std::atomic<size_t> inflight_{0};
  std::function<void()> execution_hook_;  // set before Start returns traffic

  /// Stable id stamped on every accepted connection; all log lines about
  /// a connection carry `conn=<id>` so concurrent connections' events can
  /// be correlated across pollers and workers.
  std::atomic<uint64_t> next_connection_id_{0};

  /// The front-end counters (ServerCounters' fields), each counted once,
  /// in this server's own registry: STATS reads their values and METRICS
  /// renders them. Registered at construction, so every scrape carries
  /// all seven; a second server in the process counts apart.
  obs::Registry registry_;
  obs::Counter* const connections_accepted_;
  obs::Counter* const connections_closed_;
  obs::Counter* const frames_received_;
  obs::Counter* const requests_executed_;
  obs::Counter* const busy_rejected_;
  obs::Counter* const protocol_errors_;
  obs::Counter* const accept_backoffs_;
};

}  // namespace server
}  // namespace tsq

#endif  // TSQ_SERVER_SERVER_H_
