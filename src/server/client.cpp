// Copyright (c) 2026 The tsq Authors.

#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "server/net_util.h"

namespace tsq {
namespace server {

namespace {

/// Connect with a deadline: non-blocking connect, poll for writability,
/// then surface the socket's final disposition via SO_ERROR. The socket
/// is restored to blocking mode on success.
Status ConnectWithTimeout(int fd, const sockaddr_in& addr,
                          const std::string& where, uint64_t timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl " + where);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) return ErrnoStatus("connect " + where);
    pollfd pfd{fd, POLLOUT, 0};
    for (;;) {
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return ErrnoStatus("poll " + where);
      if (ready == 0) {
        return Status::Unavailable("connect " + where + " timed out after " +
                                   std::to_string(timeout_ms) + "ms");
      }
      break;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      return ErrnoStatus("getsockopt " + where);
    }
    if (err != 0) {
      errno = err;
      return ErrnoStatus("connect " + where);
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) return ErrnoStatus("fcntl " + where);
  return Status::OK();
}

/// The socket half of Connect: resolves, connects (with the optional
/// deadline) and applies the socket options. Shared by Connect and
/// Reconnect.
Result<int> OpenSocket(const std::string& host, uint16_t port,
                       const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address '" + host + "'");
  }
  const std::string where = host + ":" + std::to_string(port);
  if (options.connect_timeout_ms > 0) {
    if (Status status =
            ConnectWithTimeout(fd, addr, where, options.connect_timeout_ms);
        !status.ok()) {
      ::close(fd);
      return status;
    }
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    Status status = ErrnoStatus("connect " + where);
    ::close(fd);
    return status;
  }
  if (options.io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(options.io_timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((options.io_timeout_ms % 1000) *
                                          1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                const ClientOptions& options) {
  TSQ_ASSIGN_OR_RETURN(const int fd, OpenSocket(host, port, options));
  return std::unique_ptr<Client>(new Client(fd, host, port, options));
}

Status Client::Reconnect() {
  TSQ_ASSIGN_OR_RETURN(const int fd, OpenSocket(host_, port_, options_));
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  reader_ = FrameReader();  // any half-read frame died with the old stream
  fault_ = Status::OK();
  return Status::OK();
}

Status Client::SendAll(const serde::Buffer& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        options_.io_timeout_ms > 0) {
      return Status::Unavailable(
          "send timed out after " + std::to_string(options_.io_timeout_ms) +
          "ms; the request may be partially written — reconnect");
    }
    return ErrnoStatus("send");
  }
  return Status::OK();
}

Result<Reply> Client::RoundTrip(Request request) {
  if (!fault_.ok()) return fault_;
  request.id = next_id_++;
  serde::Buffer frame;
  EncodeRequest(request, &frame);
  if (Status status = SendAll(frame); !status.ok()) {
    fault_ = status;
    return status;
  }

  Reply reply;
  bool have_reply = false;
  uint8_t buf[64 * 1024];
  while (!have_reply) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      fault_ = Status::IOError("server closed the connection");
      return fault_;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
          options_.io_timeout_ms > 0) {
        // SO_RCVTIMEO expired: the server is hung (or the reply is very
        // late). The reply may still arrive, so the stream position is
        // indeterminate — poison the connection; the caller reconnects.
        fault_ = Status::Unavailable(
            "no reply within " + std::to_string(options_.io_timeout_ms) +
            "ms; connection state indeterminate — reconnect");
        return fault_;
      }
      fault_ = ErrnoStatus("recv");
      return fault_;
    }
    Status status = reader_.Feed(
        buf, static_cast<size_t>(n),
        [&reply, &have_reply](const uint8_t* payload, size_t size) {
          if (have_reply) {
            return Status::Corruption("unexpected extra reply frame");
          }
          TSQ_RETURN_IF_ERROR(DecodeReply(payload, size, &reply));
          have_reply = true;
          return Status::OK();
        });
    if (!status.ok()) {
      fault_ = status;
      return status;
    }
  }
  if (reply.id != request.id) {
    // A blocking client has exactly one request outstanding; any other id
    // means the stream is off the rails.
    fault_ = Status::Corruption(
        "reply id " + std::to_string(reply.id) + " does not match request " +
        std::to_string(request.id));
    return fault_;
  }
  if (reply.code == ReplyCode::kBusy) {
    return Status::Unavailable("server admission queue full; retry later");
  }
  if (reply.code == ReplyCode::kError) return reply.error;
  return reply;
}

Result<Reply> Client::RoundTripWithRetry(Request request) {
  // Inserts are deliberately excluded: an indeterminate failure (io
  // timeout) leaves it unknown whether ids were assigned, and a resend
  // could store the batch twice. Everything else is idempotent.
  const bool idempotent = request.verb != Verb::kInsert;
  Result<Reply> result = RoundTrip(request);
  for (uint32_t attempt = 0; attempt < options_.max_retries; ++attempt) {
    if (result.ok() || !idempotent ||
        result.status().code() != StatusCode::kUnavailable) {
      break;
    }
    // Capped exponential backoff with jitter: sleep a uniform draw from
    // [backoff/2, backoff] so a herd of clients bounced by the same BUSY
    // burst does not return in lockstep.
    uint64_t backoff_ms = options_.retry_base_ms > 0
                              ? options_.retry_base_ms
                              : 1;
    for (uint32_t i = 0; i < attempt && backoff_ms < 1000; ++i) {
      backoff_ms *= 2;
    }
    if (backoff_ms > 1000) backoff_ms = 1000;
    if (jitter_state_ == 0) {
      // Seed once per client from the address of this object and the
      // clock — uncorrelated across processes, no global state.
      jitter_state_ =
          (reinterpret_cast<uintptr_t>(this) ^
           static_cast<uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count())) |
          1;
    }
    // xorshift64: cheap, stateless-enough jitter (not cryptographic).
    jitter_state_ ^= jitter_state_ << 13;
    jitter_state_ ^= jitter_state_ >> 7;
    jitter_state_ ^= jitter_state_ << 17;
    const uint64_t sleep_ms =
        backoff_ms / 2 + jitter_state_ % (backoff_ms / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    if (!fault_.ok()) {
      // The failure poisoned the stream (timeout mid-reply); a BUSY
      // bounce leaves it healthy and retries in place.
      if (Status status = Reconnect(); !status.ok()) {
        result = status;
        continue;
      }
    }
    result = RoundTrip(request);
  }
  return result;
}

Status Client::Ping() {
  Request request;
  request.verb = Verb::kPing;
  return RoundTripWithRetry(std::move(request)).status();
}

Result<DatabaseStats> Client::Stats(ServerCounters* counters) {
  Request request;
  request.verb = Verb::kStats;
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  if (counters != nullptr) *counters = reply.server_counters;
  return reply.stats;
}

Result<std::string> Client::Metrics() {
  Request request;
  request.verb = Verb::kMetrics;
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  return std::move(reply.metrics_text);
}

Result<std::vector<engine::BatchResult>> Client::RunBatch(
    const std::vector<engine::BatchQuery>& queries) {
  Request request;
  request.verb = Verb::kBatch;
  request.queries = queries;
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  if (reply.results.size() != queries.size()) {
    fault_ = Status::Corruption(
        "batch reply carries " + std::to_string(reply.results.size()) +
        " results for " + std::to_string(queries.size()) + " queries");
    return fault_;
  }
  return std::move(reply.results);
}

Result<engine::BatchResult> Client::Query(engine::BatchQuery query) {
  Request request;
  request.verb = Verb::kQuery;
  request.queries.push_back(std::move(query));
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  return engine::SingleResult(std::move(reply.results));
}

Result<std::vector<Match>> Client::Range(const RealVec& query, double epsilon,
                                         const QuerySpec& spec) {
  TSQ_ASSIGN_OR_RETURN(engine::BatchResult result,
                       Query(engine::BatchQuery::Range(query, epsilon, spec)));
  return std::move(result.matches);
}

Result<std::vector<Match>> Client::Knn(const RealVec& query, size_t k,
                                       const QuerySpec& spec,
                                       const KnnOptions& options,
                                       QueryStats* stats) {
  TSQ_ASSIGN_OR_RETURN(
      engine::BatchResult result,
      Query(engine::BatchQuery::Knn(query, k, spec, options)));
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.matches);
}

Result<std::vector<SeriesId>> Client::InsertBatch(
    const std::vector<std::string>& names,
    const std::vector<RealVec>& values) {
  Request request;
  request.verb = Verb::kInsert;
  request.insert_names = names;
  request.insert_values = values;
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  // Bound the allocation by what was actually sent: a corrupt reply must
  // not make the client size a vector from an arbitrary wire value.
  if (reply.insert_count != names.size()) {
    fault_ = Status::Corruption(
        "insert reply claims " + std::to_string(reply.insert_count) +
        " ids for " + std::to_string(names.size()) + " series");
    return fault_;
  }
  std::vector<SeriesId> ids(names.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = reply.insert_base + i;
  }
  return ids;
}

Result<std::vector<JoinPair>> Client::SelfJoin(
    double epsilon, const std::optional<FeatureTransform>& transform) {
  Request request;
  request.verb = Verb::kSelfJoin;
  request.epsilon = epsilon;
  request.transform = transform;
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  return std::move(reply.pairs);
}

Result<uint64_t> Client::Reindex() {
  Request request;
  request.verb = Verb::kReindex;
  TSQ_ASSIGN_OR_RETURN(Reply reply, RoundTripWithRetry(std::move(request)));
  return reply.reindex_epoch;
}

Status Client::Flush() {
  Request request;
  request.verb = Verb::kFlush;
  return RoundTripWithRetry(std::move(request)).status();
}

Status Client::Repair() {
  Request request;
  request.verb = Verb::kRepair;
  return RoundTripWithRetry(std::move(request)).status();
}

}  // namespace server
}  // namespace tsq
