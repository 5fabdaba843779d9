// Copyright (c) 2026 The tsq Authors.

#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "server/net_util.h"

namespace tsq {
namespace server {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stable label values for the per-verb request metrics.
const char* VerbLabel(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kStats: return "stats";
    case Verb::kQuery: return "query";
    case Verb::kBatch: return "batch";
    case Verb::kInsert: return "insert";
    case Verb::kSelfJoin: return "self_join";
    case Verb::kReindex: return "reindex";
    case Verb::kFlush: return "flush";
    case Verb::kRepair: return "repair";
    case Verb::kMetrics: return "metrics";
  }
  return "unknown";
}

/// One counter + latency histogram per verb, registered once and cached.
/// Lookup is branch-free after first use: function-local static init.
struct VerbMetrics {
  obs::Counter* requests;
  obs::Histogram* latency;
};

VerbMetrics& MetricsForVerb(Verb verb) {
  static std::array<VerbMetrics, static_cast<size_t>(Verb::kMetrics)>
      metrics = [] {
    std::array<VerbMetrics, static_cast<size_t>(Verb::kMetrics)> m{};
    for (size_t i = 0; i < m.size(); ++i) {
      const Verb v = static_cast<Verb>(i + 1);
      const std::string label =
          std::string("verb=\"") + VerbLabel(v) + "\"";
      m[i].requests = obs::RegisterCounter("tsqd_requests_total", label);
      m[i].latency =
          obs::RegisterHistogram("tsqd_request_latency_us", label);
    }
    return m;
  }();
  return metrics[static_cast<size_t>(verb) - 1];
}

/// Records one served request (any disposition) against the per-verb
/// families. Disarmed metrics make this one relaxed load.
void RecordRequest(Verb verb, uint64_t start_nanos) {
  if (!obs::MetricsArmed()) return;
  VerbMetrics& m = MetricsForVerb(verb);
  m.requests->Add(1);
  m.latency->Observe(NowNanos() - start_nanos);
}

uint64_t NowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t ResolvePollers(size_t requested) {
  if (requested > 0) return requested;
  const size_t hw = std::thread::hardware_concurrency();
  return std::min<size_t>(4, std::max<size_t>(1, hw));
}

/// accept4 errnos that mean "out of resources, not out of clients": the
/// listener stays readable, so retrying immediately would spin.
bool IsAcceptExhaustion(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

}  // namespace

/// Per-connection state. The owning poller thread owns the socket and
/// the read side (FrameReader); the write buffer is shared with pool
/// workers under write_mutex — workers append whole reply frames, the
/// poller flushes. `pending` counts admitted requests whose reply frame
/// has not been appended yet; it is decremented only after QueueReply,
/// so the poller observing pending == 0 is guaranteed to also observe
/// every reply in the buffer (release/acquire pairing).
struct Server::Connection {
  Connection(int fd_in, uint64_t id_in, size_t max_frame, Poller* owner_in)
      : fd(fd_in), id(id_in), owner(owner_in), reader(max_frame) {}
  // Backstop for abnormal poller exits: the retire pass closes fds on
  // the normal paths (and sets fd to -1), but a connection that outlives
  // its poller must not leak its socket.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  int fd;
  const uint64_t id;    // stable across the connection's life; in log lines
  Poller* const owner;  // which poller to wake when a reply is queued
  FrameReader reader;
  bool read_closed = false;  // owning poller only
  bool broken = false;       // transport dead; owning poller only

  std::mutex write_mutex;
  serde::Buffer write_buf;
  size_t write_pos = 0;

  std::atomic<size_t> pending{0};
};

Server::Server(Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      connections_accepted_(
          registry_.GetCounter("tsqd_connections_accepted_total")),
      connections_closed_(
          registry_.GetCounter("tsqd_connections_closed_total")),
      frames_received_(registry_.GetCounter("tsqd_frames_received_total")),
      requests_executed_(
          registry_.GetCounter("tsqd_requests_executed_total")),
      busy_rejected_(registry_.GetCounter("tsqd_busy_rejected_total")),
      protocol_errors_(registry_.GetCounter("tsqd_protocol_errors_total")),
      accept_backoffs_(registry_.GetCounter("tsqd_accept_backoffs_total")) {}

Server::~Server() { Stop(); }

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              const ServerOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("Server::Start needs a database");
  }
  auto server = std::unique_ptr<Server>(new Server(db, options));

  server->listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (server->listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + options.host +
                                   "'");
  }
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + options.host + ":" + std::to_string(options.port));
  }
  if (::listen(server->listen_fd_, 128) != 0) return ErrnoStatus("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return ErrnoStatus("getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  const size_t pollers = ResolvePollers(options.pollers);
  server->pollers_.reserve(pollers);
  for (size_t i = 0; i < pollers; ++i) {
    auto poller = std::make_unique<Poller>();
    poller->index = i;
    if (::pipe2(poller->wake_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
      return ErrnoStatus("pipe2");
    }
    server->pollers_.push_back(std::move(poller));
  }

  // Serving traffic arms the metrics registry for the whole process:
  // per-verb histograms, query stage timers and engine gauges all start
  // recording the moment a scrape could observe them.
  obs::ArmMetrics();
  for (auto& poller : server->pollers_) {
    poller->thread =
        std::thread(&Server::PollerLoop, server.get(), poller.get());
  }
  TSQ_LOG(kInfo) << "tsqd listening on " << options.host << ":"
                 << server->port_ << " (" << pollers << " pollers, "
                 << db->thread_pool()->size() << " pool workers, max_inflight "
                 << options.max_inflight << ")";
  return server;
}

void Server::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    for (auto& poller : pollers_) WakePoller(poller.get());
    for (auto& poller : pollers_) {
      if (poller->thread.joinable()) poller->thread.join();
    }
    // Each poller exits only after every connection it owns is closed;
    // a task of a connection retired early (a broken peer, the drain
    // deadline) holds its own Connection reference and may still be
    // running. Its last act before the decrement writes to a wake pipe,
    // so the pipes close only once every task has returned.
    while (tasks_.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The accept poller closes the listener on drain; this covers a
    // Start that failed before the loop ever ran.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& poller : pollers_) {
      // An fd handed off by the acceptor in the last instants before the
      // target poller exited is still sitting in its inbox: close it now
      // rather than leak it.
      for (int fd : poller->inbox) {
        if (fd >= 0) ::close(fd);
      }
      poller->inbox.clear();
      for (int& fd : poller->wake_fds) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
    TSQ_LOG(kInfo) << "tsqd stopped";
  });
}

void Server::WakePoller(Poller* poller) {
  if (poller->wake_fds[1] < 0) return;
  const uint8_t byte = 0;
  // A full pipe already guarantees a pending wake; all errors ignorable.
  [[maybe_unused]] ssize_t n = ::write(poller->wake_fds[1], &byte, 1);
}

ServerCounters Server::counters() const {
  ServerCounters out;
  out.connections_accepted = connections_accepted_->Value();
  out.connections_closed = connections_closed_->Value();
  out.frames_received = frames_received_->Value();
  out.requests_executed = requests_executed_->Value();
  out.busy_rejected = busy_rejected_->Value();
  out.protocol_errors = protocol_errors_->Value();
  out.accept_backoffs = accept_backoffs_->Value();
  return out;
}

void Server::SetExecutionHookForTesting(std::function<void()> hook) {
  execution_hook_ = std::move(hook);
}

std::string Server::RenderMetricsText() {
  // Point-in-time engine state is refreshed into gauges at scrape time —
  // no registration-time callbacks, no lifetime puzzles: a scrape simply
  // reports the database as it is now.
  // Families that otherwise register lazily (the first traced span, the
  // first slow query) are pinned here so every scrape carries them and
  // dashboards never see a family appear mid-flight.
  static const bool lazy_families_pinned = [] {
    obs::RegisterCounter("tsq_slow_queries_total");
    for (const char* s :
         {"prepare", "descent", "delta", "pool_wait", "refine"}) {
      obs::RegisterHistogram("tsq_query_stage_self_us",
                             std::string("stage=\"") + s + "\"");
    }
    return true;
  }();
  (void)lazy_families_pinned;
  static obs::Gauge* series = obs::RegisterGauge("tsq_series");
  static obs::Gauge* index_epoch = obs::RegisterGauge("tsq_index_epoch");
  static obs::Gauge* delta_entries = obs::RegisterGauge("tsq_delta_entries");
  static obs::Gauge* merges = obs::RegisterGauge("tsq_merges_completed");
  static obs::Gauge* degraded = obs::RegisterGauge("tsq_degraded");
  static obs::Gauge* write_faults = obs::RegisterGauge("tsq_write_faults");
  static obs::Gauge* repairs = obs::RegisterGauge("tsq_repairs_completed");
  const DatabaseStats stats = db_->StatsSnapshot();
  series->Set(static_cast<int64_t>(stats.series));
  index_epoch->Set(static_cast<int64_t>(stats.index_epoch));
  delta_entries->Set(static_cast<int64_t>(stats.delta_entries));
  merges->Set(static_cast<int64_t>(stats.merges_completed));
  degraded->Set(stats.degraded ? 1 : 0);
  write_faults->Set(static_cast<int64_t>(stats.write_faults));
  repairs->Set(static_cast<int64_t>(stats.repairs_completed));
  return obs::Registry::Global().RenderPrometheus() +
         registry_.RenderPrometheus();
}

void Server::QueueReply(const std::shared_ptr<Connection>& conn,
                        const Reply& reply) {
  serde::Buffer frame;
  EncodeReply(reply, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  conn->write_buf.insert(conn->write_buf.end(), frame.begin(), frame.end());
}

void Server::ExecuteRequest(const std::shared_ptr<Connection>& conn,
                            const std::shared_ptr<Request>& request) {
  if (execution_hook_) execution_hook_();
  requests_executed_->Add();
  const uint64_t start_nanos = NowNanos();

  Reply reply;
  reply.verb = request->verb;
  reply.id = request->id;
  auto fail = [&reply](const Status& status) {
    reply.code = ReplyCode::kError;
    reply.error = status;
  };
  switch (request->verb) {
    case Verb::kPing:
    case Verb::kMetrics:
      break;  // answered inline by the owning poller; kept for safety
    case Verb::kStats:
      reply.stats = db_->StatsSnapshot();
      reply.server_counters = counters();
      break;
    case Verb::kQuery:
    case Verb::kBatch: {
      auto results = db_->RunBatch(request->queries);
      if (!results.ok()) {
        fail(results.status());
      } else {
        reply.results = std::move(*results);
      }
      break;
    }
    case Verb::kInsert: {
      auto ids =
          db_->InsertBatch(request->insert_names, request->insert_values);
      if (!ids.ok()) {
        fail(ids.status());
      } else {
        reply.insert_base = ids->empty() ? 0 : ids->front();
        reply.insert_count = ids->size();
      }
      break;
    }
    case Verb::kSelfJoin: {
      auto pairs = db_->SelfJoin(request->epsilon, JoinMethod::kTreeMatch,
                                 request->transform);
      if (!pairs.ok()) {
        fail(pairs.status());
      } else {
        reply.pairs = std::move(*pairs);
      }
      break;
    }
    case Verb::kReindex: {
      auto epoch = db_->Reindex();
      if (!epoch.ok()) {
        fail(epoch.status());
      } else {
        reply.reindex_epoch = *epoch;
      }
      break;
    }
    case Verb::kFlush:
      if (Status status = db_->Flush(); !status.ok()) fail(status);
      break;
    case Verb::kRepair:
      if (Status status = db_->Repair(); !status.ok()) fail(status);
      break;
  }
  RecordRequest(request->verb, start_nanos);
  QueueReply(conn, reply);
  // Decrement only after the reply frame is buffered: the owning poller
  // treats pending == 0 as "every admitted reply is flushable".
  conn->pending.fetch_sub(1, std::memory_order_release);
  inflight_.fetch_sub(1, std::memory_order_release);
  WakePoller(conn->owner);
}

Status Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                           const uint8_t* payload, size_t size) {
  frames_received_->Add();
  const uint64_t start_nanos = NowNanos();
  auto request = std::make_shared<Request>();
  if (Status status = DecodeRequest(payload, size, request.get());
      !status.ok()) {
    // CRC was valid, so framing is intact: report the decode failure to
    // the peer (verb/id are best-effort partial decodes) and carry on.
    protocol_errors_->Add();
    TSQ_LOG(kDebug) << "tsqd conn=" << conn->id << " req=" << request->id
                    << " undecodable request: " << status.ToString();
    Reply reply;
    reply.code = ReplyCode::kError;
    reply.verb = request->verb;
    reply.id = request->id;
    reply.error = std::move(status);
    QueueReply(conn, reply);
    return Status::OK();
  }
  if (request->verb == Verb::kPing) {
    // Liveness probes bypass admission: answered inline, never BUSY.
    Reply reply;
    reply.verb = Verb::kPing;
    reply.id = request->id;
    RecordRequest(Verb::kPing, start_nanos);
    QueueReply(conn, reply);
    return Status::OK();
  }
  if (request->verb == Verb::kMetrics) {
    // Metrics scrapes bypass admission too: monitoring must keep working
    // when the admission queue is saturated — that is exactly when the
    // numbers matter. Rendering reads only relaxed atomics plus one
    // StatsSnapshot; cheap enough for the poller thread.
    Reply reply;
    reply.verb = Verb::kMetrics;
    reply.id = request->id;
    reply.metrics_text = RenderMetricsText();
    RecordRequest(Verb::kMetrics, start_nanos);
    QueueReply(conn, reply);
    return Status::OK();
  }
  size_t inflight = inflight_.load(std::memory_order_relaxed);
  bool admitted = false;
  while (inflight < options_.max_inflight) {
    if (inflight_.compare_exchange_weak(inflight, inflight + 1,
                                        std::memory_order_acq_rel)) {
      admitted = true;
      break;
    }
  }
  if (!admitted) {
    busy_rejected_->Add();
    Reply reply;
    reply.code = ReplyCode::kBusy;
    reply.verb = request->verb;
    reply.id = request->id;
    QueueReply(conn, reply);
    return Status::OK();
  }
  conn->pending.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(1, std::memory_order_relaxed);
  db_->thread_pool()->Submit([this, conn, request] {
    ExecuteRequest(conn, request);
    tasks_.fetch_sub(1, std::memory_order_release);
  });
  return Status::OK();
}

void Server::PollerLoop(Poller* self) {
  const bool acceptor = self->index == 0;
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool listener_open = acceptor;
  bool draining = false;
  uint64_t drain_deadline_ms = 0;
  // Fd-exhaustion backoff (acceptor only): while now < rearm the
  // listener is left out of the poll set so a permanently-readable
  // listener cannot spin this thread; pending peers wait in the backlog.
  uint64_t listener_rearm_ms = 0;
  bool exhaustion_logged = false;
  size_t next_poller = 0;  // round-robin handoff cursor

  auto flush_writes = [](Connection* conn) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    while (conn->write_pos < conn->write_buf.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->write_buf.data() + conn->write_pos,
                 conn->write_buf.size() - conn->write_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->write_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn->broken = true;
      break;
    }
    if (conn->write_pos > 0) {
      conn->write_buf.erase(
          conn->write_buf.begin(),
          conn->write_buf.begin() + static_cast<ptrdiff_t>(conn->write_pos));
      conn->write_pos = 0;
    }
  };
  auto write_pending = [](Connection* conn) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    return conn->write_buf.size() - conn->write_pos;
  };

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && !draining) {
      draining = true;
      drain_deadline_ms = NowMillis() + options_.drain_timeout_ms;
      if (listener_open) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        listener_open = false;
      }
      for (const auto& conn : self->connections) {
        if (!conn->read_closed) {
          ::shutdown(conn->fd, SHUT_RD);
          conn->read_closed = true;
        }
      }
    }

    // Adopt sockets the acceptor handed off. During drain an adopted
    // connection is immediately read-shut so it only flushes replies —
    // it carried no admitted requests yet, so it retires right away.
    {
      std::vector<int> adopted;
      {
        std::lock_guard<std::mutex> lock(self->inbox_mutex);
        adopted.swap(self->inbox);
      }
      for (int fd : adopted) {
        auto conn = std::make_shared<Connection>(
            fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed),
            options_.max_frame_bytes, self);
        if (draining) {
          ::shutdown(fd, SHUT_RD);
          conn->read_closed = true;
        }
        self->connections.push_back(std::move(conn));
      }
    }

    // Retire connections that are fully done: nothing more to read,
    // every admitted request replied, every reply byte flushed — or the
    // transport is dead (broken), or the drain deadline passed.
    for (auto it = self->connections.begin(); it != self->connections.end();) {
      Connection* conn = it->get();
      const bool drained =
          conn->pending.load(std::memory_order_acquire) == 0 &&
          write_pending(conn) == 0;
      const bool expired = draining && NowMillis() >= drain_deadline_ms;
      if (conn->broken || ((conn->read_closed || draining) && drained) ||
          expired) {
        ::close(conn->fd);
        conn->fd = -1;
        connections_closed_->Add();
        it = self->connections.erase(it);
      } else {
        ++it;
      }
    }
    if (draining && self->connections.empty()) return;

    const uint64_t now_ms = NowMillis();
    const bool listener_armed = listener_open && now_ms >= listener_rearm_ms;
    pfds.clear();
    polled.clear();
    pfds.push_back({self->wake_fds[0], POLLIN, 0});
    if (listener_armed) pfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : self->connections) {
      short events = 0;
      if (!conn->read_closed) events |= POLLIN;
      if (write_pending(conn.get()) > 0) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn);
    }
    // Finite timeout: a cheap idle tick that also bounds the drain wait
    // and, while the listener is backed off, its re-arm latency.
    int timeout_ms = draining ? 20 : 500;
    if (listener_open && !listener_armed) {
      const uint64_t until_rearm =
          listener_rearm_ms > now_ms ? listener_rearm_ms - now_ms : 1;
      timeout_ms = std::min<int>(timeout_ms, static_cast<int>(until_rearm));
    }
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      // Unrecoverable poller failure (EINVAL/ENOMEM): close this
      // poller's sockets so peers see FIN instead of hanging; in-flight
      // tasks still hold their Connection references and finish
      // harmlessly. Other pollers keep serving.
      TSQ_LOG(kError) << "tsqd poller " << self->index
                      << " poll failed: " << std::strerror(errno);
      for (const auto& conn : self->connections) {
        ::close(conn->fd);
        conn->fd = -1;
        connections_closed_->Add();
      }
      self->connections.clear();
      if (listener_open) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      return;
    }
    if (ready <= 0) continue;  // timeout tick or EINTR

    size_t idx = 0;
    if (pfds[idx].revents & POLLIN) {
      uint8_t drain[256];
      while (::read(self->wake_fds[0], drain, sizeof(drain)) > 0) {
      }
    }
    ++idx;

    if (listener_armed) {
      if (pfds[idx].revents & POLLIN) {
        for (;;) {
          const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd >= 0) {
            exhaustion_logged = false;
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            connections_accepted_->Add();
            Poller* target = pollers_[next_poller % pollers_.size()].get();
            ++next_poller;
            if (target == self) {
              self->connections.push_back(std::make_shared<Connection>(
                  fd,
                  next_connection_id_.fetch_add(1, std::memory_order_relaxed),
                  options_.max_frame_bytes, self));
            } else {
              {
                std::lock_guard<std::mutex> lock(target->inbox_mutex);
                target->inbox.push_back(fd);
              }
              WakePoller(target);
            }
            continue;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK ||
              errno == ECONNABORTED) {
            break;  // backlog empty (or a peer gave up): nothing to do
          }
          // Out of fds (or kernel memory): the listener would stay
          // readable forever, so back off instead of spinning. The
          // backlog keeps the pending peers; re-arm after the window.
          listener_rearm_ms = NowMillis() + kAcceptBackoffMs;
          accept_backoffs_->Add();
          if (!exhaustion_logged) {
            TSQ_LOG(kWarn) << "tsqd accept failed ("
                           << std::strerror(errno)
                           << "); pausing the listener for "
                           << kAcceptBackoffMs << "ms"
                           << (IsAcceptExhaustion(errno)
                                   ? ""
                                   : " (unexpected errno)");
            exhaustion_logged = true;
          }
          break;
        }
      }
      ++idx;
    }

    for (size_t c = 0; c < polled.size(); ++c, ++idx) {
      const std::shared_ptr<Connection>& conn = polled[c];
      const short revents = pfds[idx].revents;
      if (revents & POLLERR) {
        conn->broken = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !conn->read_closed) {
        uint8_t buf[64 * 1024];
        for (;;) {
          const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
          if (n > 0) {
            Status status = conn->reader.Feed(
                buf, static_cast<size_t>(n),
                [this, &conn](const uint8_t* payload, size_t size) {
                  return HandleFrame(conn, payload, size);
                });
            if (!status.ok()) {
              // Framing is gone (bad magic/CRC/oversize): stop reading,
              // deliver what was admitted, then the retire pass closes.
              protocol_errors_->Add();
              TSQ_LOG(kDebug) << "tsqd conn=" << conn->id
                              << " dropping connection: "
                              << status.ToString();
              ::shutdown(conn->fd, SHUT_RD);
              conn->read_closed = true;
              break;
            }
            continue;
          }
          if (n == 0) {
            conn->read_closed = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          // Fatal transport error (e.g. ECONNRESET): the peer is gone,
          // so replies can never be delivered — retire the connection
          // now instead of lingering until a later send fails.
          conn->broken = true;
          break;
        }
      }
      if ((revents & POLLOUT) && !conn->broken) flush_writes(conn.get());
    }
  }
}

}  // namespace server
}  // namespace tsq
