// Copyright (c) 2026 The tsq Authors.

#include "server/protocol.h"

#include <cstring>

namespace tsq {
namespace server {

namespace {

using serde::Buffer;
using serde::Reader;

// --------------------------------------------------------------------------
// Shared sub-codecs. Every Get* validates enum ranges and cross-field
// invariants before constructing library types, so a hostile payload can
// only ever produce Status::Corruption — never an abort or an allocation
// beyond the received bytes.
// --------------------------------------------------------------------------

void PutStatus(Buffer* buf, const Status& status) {
  serde::PutU32(buf, static_cast<uint32_t>(status.code()));
  serde::PutString(buf, status.message());
}

Status GetStatus(Reader* reader, Status* out) {
  uint32_t code = 0;
  std::string message;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&code));
  TSQ_RETURN_IF_ERROR(reader->GetString(&message));
  if (code > static_cast<uint32_t>(StatusCode::kReadOnly)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  *out = code == 0 ? Status::OK()
                   : Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void PutTransform(Buffer* buf, const FeatureTransform& t) {
  serde::PutComplexVec(buf, t.spectral.a());
  serde::PutComplexVec(buf, t.spectral.b());
  serde::PutDouble(buf, t.spectral.cost());
  serde::PutString(buf, t.spectral.name());
  serde::PutDouble(buf, t.mean_scale);
  serde::PutDouble(buf, t.mean_offset);
  serde::PutDouble(buf, t.std_scale);
}

Status GetTransform(Reader* reader, std::optional<FeatureTransform>* out) {
  ComplexVec a;
  ComplexVec b;
  double cost = 0.0;
  std::string name;
  TSQ_RETURN_IF_ERROR(reader->GetComplexVec(&a));
  TSQ_RETURN_IF_ERROR(reader->GetComplexVec(&b));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&cost));
  TSQ_RETURN_IF_ERROR(reader->GetString(&name));
  // LinearTransform TSQ_CHECKs this invariant; on wire input it must be a
  // recoverable decode error instead of a process abort.
  if (a.size() != b.size()) {
    return Status::Corruption("transform vectors differ in length: " +
                              std::to_string(a.size()) + " vs " +
                              std::to_string(b.size()));
  }
  FeatureTransform t =
      FeatureTransform::Spectral(LinearTransform(std::move(a), std::move(b),
                                                 cost, std::move(name)));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&t.mean_scale));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&t.mean_offset));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&t.std_scale));
  *out = std::move(t);
  return Status::OK();
}

void PutSpec(Buffer* buf, const QuerySpec& spec) {
  serde::PutU32(buf, spec.transform.has_value() ? 1 : 0);
  if (spec.transform.has_value()) PutTransform(buf, *spec.transform);
  serde::PutU32(buf, static_cast<uint32_t>(spec.mode));
  serde::PutU32(buf, spec.window.has_value() ? 1 : 0);
  if (spec.window.has_value()) {
    serde::PutDouble(buf, spec.window->mean_lo);
    serde::PutDouble(buf, spec.window->mean_hi);
    serde::PutDouble(buf, spec.window->std_lo);
    serde::PutDouble(buf, spec.window->std_hi);
  }
}

Status GetSpec(Reader* reader, QuerySpec* out) {
  uint32_t has_transform = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&has_transform));
  if (has_transform > 1) {
    return Status::Corruption("spec transform flag out of range");
  }
  if (has_transform == 1) {
    TSQ_RETURN_IF_ERROR(GetTransform(reader, &out->transform));
  }
  uint32_t mode = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&mode));
  if (mode > static_cast<uint32_t>(TransformMode::kDataOnly)) {
    return Status::Corruption("unknown transform mode " +
                              std::to_string(mode));
  }
  out->mode = static_cast<TransformMode>(mode);
  uint32_t has_window = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&has_window));
  if (has_window > 1) {
    return Status::Corruption("spec window flag out of range");
  }
  if (has_window == 1) {
    MeanStdWindow window{};
    TSQ_RETURN_IF_ERROR(reader->GetDouble(&window.mean_lo));
    TSQ_RETURN_IF_ERROR(reader->GetDouble(&window.mean_hi));
    TSQ_RETURN_IF_ERROR(reader->GetDouble(&window.std_lo));
    TSQ_RETURN_IF_ERROR(reader->GetDouble(&window.std_hi));
    out->window = window;
  }
  return Status::OK();
}

void PutBatchQuery(Buffer* buf, const engine::BatchQuery& query) {
  serde::PutU32(buf, static_cast<uint32_t>(query.kind));
  serde::PutRealVec(buf, query.query);
  serde::PutDouble(buf, query.epsilon);
  serde::PutU64(buf, query.k);
  PutSpec(buf, query.spec);
  serde::PutDouble(buf, query.knn.epsilon);
  serde::PutU64(buf, query.knn.probe_budget);
}

Status GetBatchQuery(Reader* reader, engine::BatchQuery* out) {
  uint32_t kind = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&kind));
  if (kind > static_cast<uint32_t>(engine::BatchQueryKind::kKnn)) {
    return Status::Corruption("unknown batch query kind " +
                              std::to_string(kind));
  }
  out->kind = static_cast<engine::BatchQueryKind>(kind);
  TSQ_RETURN_IF_ERROR(reader->GetRealVec(&out->query));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->epsilon));
  uint64_t k = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU64(&k));
  out->k = static_cast<size_t>(k);
  TSQ_RETURN_IF_ERROR(GetSpec(reader, &out->spec));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->knn.epsilon));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->knn.probe_budget));
  if (!(out->knn.epsilon >= 0.0)) {  // rejects negatives and NaN
    return Status::Corruption("kNN error tolerance out of range");
  }
  return Status::OK();
}

void PutQueryStats(Buffer* buf, const QueryStats& stats) {
  serde::PutU64(buf, stats.candidates);
  serde::PutU64(buf, stats.verified);
  serde::PutU64(buf, stats.answers);
  serde::PutU64(buf, stats.nodes_visited);
  serde::PutU64(buf, stats.rect_transforms);
  serde::PutU64(buf, stats.disk_reads);
  serde::PutU64(buf, stats.records_scanned);
  serde::PutDouble(buf, stats.elapsed_ms);
  serde::PutU64(buf, stats.pruned);
  serde::PutDouble(buf, stats.max_error);
  serde::PutU32(buf, stats.approx ? 1 : 0);
  serde::PutU32(buf, stats.traced ? 1 : 0);
  serde::PutDouble(buf, stats.prepare_ms);
  serde::PutDouble(buf, stats.descent_ms);
  serde::PutDouble(buf, stats.delta_ms);
  serde::PutDouble(buf, stats.pool_wait_ms);
  serde::PutDouble(buf, stats.refine_ms);
}

Status GetQueryStats(Reader* reader, QueryStats* out) {
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->candidates));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->verified));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->answers));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->nodes_visited));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->rect_transforms));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->disk_reads));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->records_scanned));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->elapsed_ms));
  uint32_t approx = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->pruned));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->max_error));
  TSQ_RETURN_IF_ERROR(reader->GetU32(&approx));
  if (approx > 1) {
    return Status::Corruption("stats approx flag out of range");
  }
  out->approx = approx == 1;
  uint32_t traced = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&traced));
  if (traced > 1) {
    return Status::Corruption("stats traced flag out of range");
  }
  out->traced = traced == 1;
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->prepare_ms));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->descent_ms));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->delta_ms));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->pool_wait_ms));
  TSQ_RETURN_IF_ERROR(reader->GetDouble(&out->refine_ms));
  if (!out->traced &&
      (out->prepare_ms != 0.0 || out->descent_ms != 0.0 ||
       out->delta_ms != 0.0 || out->pool_wait_ms != 0.0 ||
       out->refine_ms != 0.0)) {
    return Status::Corruption("stage times on an untraced result");
  }
  return Status::OK();
}

void PutBatchResult(Buffer* buf, const engine::BatchResult& result) {
  PutStatus(buf, result.status);
  serde::PutU64(buf, result.matches.size());
  for (const Match& m : result.matches) {
    serde::PutU64(buf, m.id);
    serde::PutString(buf, m.name);
    serde::PutDouble(buf, m.distance);
  }
  PutQueryStats(buf, result.stats);
}

Status GetBatchResult(Reader* reader, engine::BatchResult* out) {
  TSQ_RETURN_IF_ERROR(GetStatus(reader, &out->status));
  uint64_t matches = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU64(&matches));
  for (uint64_t i = 0; i < matches; ++i) {
    Match m;
    uint64_t id = 0;
    TSQ_RETURN_IF_ERROR(reader->GetU64(&id));
    m.id = id;
    TSQ_RETURN_IF_ERROR(reader->GetString(&m.name));
    TSQ_RETURN_IF_ERROR(reader->GetDouble(&m.distance));
    out->matches.push_back(std::move(m));
  }
  return GetQueryStats(reader, &out->stats);
}

void PutServerCounters(Buffer* buf, const ServerCounters& counters) {
  serde::PutU64(buf, counters.connections_accepted);
  serde::PutU64(buf, counters.connections_closed);
  serde::PutU64(buf, counters.frames_received);
  serde::PutU64(buf, counters.requests_executed);
  serde::PutU64(buf, counters.busy_rejected);
  serde::PutU64(buf, counters.protocol_errors);
  serde::PutU64(buf, counters.accept_backoffs);
}

Status GetServerCounters(Reader* reader, ServerCounters* out) {
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->connections_accepted));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->connections_closed));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->frames_received));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->requests_executed));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->busy_rejected));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->protocol_errors));
  return reader->GetU64(&out->accept_backoffs);
}

void PutDatabaseStats(Buffer* buf, const DatabaseStats& stats) {
  serde::PutU64(buf, stats.series);
  serde::PutU64(buf, stats.series_length);
  serde::PutU32(buf, stats.index_built ? 1 : 0);
  serde::PutU64(buf, stats.relation_records_read);
  serde::PutU64(buf, stats.relation_bytes_read);
  serde::PutU64(buf, stats.relation_bytes_written);
  serde::PutU64(buf, stats.pool_hits);
  serde::PutU64(buf, stats.pool_misses);
  serde::PutU64(buf, stats.pool_evictions);
  serde::PutU64(buf, stats.pool_disk_reads);
  serde::PutU64(buf, stats.pool_disk_writes);
  serde::PutU64(buf, stats.nodes_visited);
  serde::PutU64(buf, stats.rect_transforms);
  serde::PutU64(buf, stats.leaf_entries_tested);
  serde::PutU64(buf, stats.tree_entries);
  serde::PutU64(buf, stats.tree_height);
  serde::PutU64(buf, stats.tree_dims);
  serde::PutU64(buf, stats.index_epoch);
  serde::PutU64(buf, stats.delta_entries);
  serde::PutU64(buf, stats.merges_completed);
  serde::PutU32(buf, stats.degraded ? 1 : 0);
  serde::PutU64(buf, stats.write_faults);
  serde::PutU64(buf, stats.repairs_completed);
}

Status GetDatabaseStats(Reader* reader, DatabaseStats* out) {
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->series));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->series_length));
  uint32_t index_built = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&index_built));
  if (index_built > 1) {
    return Status::Corruption("stats index flag out of range");
  }
  out->index_built = index_built == 1;
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->relation_records_read));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->relation_bytes_read));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->relation_bytes_written));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->pool_hits));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->pool_misses));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->pool_evictions));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->pool_disk_reads));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->pool_disk_writes));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->nodes_visited));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->rect_transforms));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->leaf_entries_tested));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->tree_entries));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->tree_height));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->tree_dims));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->index_epoch));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->delta_entries));
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->merges_completed));
  uint32_t degraded = 0;
  TSQ_RETURN_IF_ERROR(reader->GetU32(&degraded));
  if (degraded > 1) {
    return Status::Corruption("stats degraded flag out of range");
  }
  out->degraded = degraded == 1;
  TSQ_RETURN_IF_ERROR(reader->GetU64(&out->write_faults));
  return reader->GetU64(&out->repairs_completed);
}

/// Wraps a finished payload in the frame header.
void EncodeFrame(const Buffer& payload, Buffer* frame) {
  serde::PutU32(frame, kFrameMagic);
  serde::PutU32(frame, serde::Crc32(payload));
  serde::PutU64(frame, payload.size());
  frame->insert(frame->end(), payload.begin(), payload.end());
}

Status CheckVerb(uint32_t verb) {
  if (verb < static_cast<uint32_t>(Verb::kPing) ||
      verb > static_cast<uint32_t>(Verb::kMetrics)) {
    return Status::Corruption("unknown verb " + std::to_string(verb));
  }
  return Status::OK();
}

}  // namespace

void EncodeRequest(const Request& request, Buffer* frame) {
  Buffer payload;
  serde::PutU32(&payload, static_cast<uint32_t>(request.verb));
  serde::PutU64(&payload, request.id);
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kStats:
    case Verb::kReindex:
    case Verb::kFlush:
    case Verb::kRepair:
    case Verb::kMetrics:
      break;
    case Verb::kQuery:
      TSQ_CHECK_MSG(request.queries.size() == 1,
                    "kQuery carries exactly one query, got %zu",
                    request.queries.size());
      PutBatchQuery(&payload, request.queries[0]);
      break;
    case Verb::kBatch:
      serde::PutU64(&payload, request.queries.size());
      for (const engine::BatchQuery& q : request.queries) {
        PutBatchQuery(&payload, q);
      }
      break;
    case Verb::kInsert:
      TSQ_CHECK_MSG(request.insert_names.size() == request.insert_values.size(),
                    "insert names/values disagree: %zu vs %zu",
                    request.insert_names.size(), request.insert_values.size());
      serde::PutU64(&payload, request.insert_names.size());
      for (size_t i = 0; i < request.insert_names.size(); ++i) {
        serde::PutString(&payload, request.insert_names[i]);
        serde::PutRealVec(&payload, request.insert_values[i]);
      }
      break;
    case Verb::kSelfJoin:
      serde::PutDouble(&payload, request.epsilon);
      serde::PutU32(&payload, request.transform.has_value() ? 1 : 0);
      if (request.transform.has_value()) {
        PutTransform(&payload, *request.transform);
      }
      break;
  }
  EncodeFrame(payload, frame);
}

Status DecodeRequest(const uint8_t* payload, size_t size, Request* out) {
  *out = Request{};  // a reused out-struct must not leak stale fields
  Reader reader(payload, size);
  uint32_t verb = 0;
  TSQ_RETURN_IF_ERROR(reader.GetU32(&verb));
  // Capture the request id before rejecting an unknown verb: the
  // server's ERROR reply echoes out->id, and a client (possibly newer,
  // speaking a verb this server lacks) matches the reply by that id.
  TSQ_RETURN_IF_ERROR(reader.GetU64(&out->id));
  TSQ_RETURN_IF_ERROR(CheckVerb(verb));
  out->verb = static_cast<Verb>(verb);
  switch (out->verb) {
    case Verb::kPing:
    case Verb::kStats:
    case Verb::kReindex:
    case Verb::kFlush:
    case Verb::kRepair:
    case Verb::kMetrics:
      break;
    case Verb::kQuery: {
      engine::BatchQuery query;
      TSQ_RETURN_IF_ERROR(GetBatchQuery(&reader, &query));
      out->queries.push_back(std::move(query));
      break;
    }
    case Verb::kBatch: {
      uint64_t count = 0;
      TSQ_RETURN_IF_ERROR(reader.GetU64(&count));
      // No reserve(count): a hostile count is bounded by the bytes that
      // actually follow — the loop fails with Corruption the moment the
      // payload runs dry.
      for (uint64_t i = 0; i < count; ++i) {
        engine::BatchQuery query;
        TSQ_RETURN_IF_ERROR(GetBatchQuery(&reader, &query));
        out->queries.push_back(std::move(query));
      }
      break;
    }
    case Verb::kInsert: {
      uint64_t count = 0;
      TSQ_RETURN_IF_ERROR(reader.GetU64(&count));
      for (uint64_t i = 0; i < count; ++i) {
        std::string name;
        RealVec values;
        TSQ_RETURN_IF_ERROR(reader.GetString(&name));
        TSQ_RETURN_IF_ERROR(reader.GetRealVec(&values));
        out->insert_names.push_back(std::move(name));
        out->insert_values.push_back(std::move(values));
      }
      break;
    }
    case Verb::kSelfJoin: {
      TSQ_RETURN_IF_ERROR(reader.GetDouble(&out->epsilon));
      uint32_t has_transform = 0;
      TSQ_RETURN_IF_ERROR(reader.GetU32(&has_transform));
      if (has_transform > 1) {
        return Status::Corruption("join transform flag out of range");
      }
      if (has_transform == 1) {
        TSQ_RETURN_IF_ERROR(GetTransform(&reader, &out->transform));
      }
      break;
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("request carries " +
                              std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return Status::OK();
}

void EncodeReply(const Reply& reply, Buffer* frame) {
  Buffer payload;
  serde::PutU32(&payload, static_cast<uint32_t>(reply.code));
  serde::PutU32(&payload, static_cast<uint32_t>(reply.verb));
  serde::PutU64(&payload, reply.id);
  if (reply.code == ReplyCode::kError) {
    PutStatus(&payload, reply.error);
    EncodeFrame(payload, frame);
    return;
  }
  if (reply.code == ReplyCode::kBusy) {
    EncodeFrame(payload, frame);
    return;
  }
  switch (reply.verb) {
    case Verb::kPing:
    case Verb::kFlush:
    case Verb::kRepair:
      break;
    case Verb::kStats:
      PutDatabaseStats(&payload, reply.stats);
      PutServerCounters(&payload, reply.server_counters);
      break;
    case Verb::kMetrics:
      serde::PutString(&payload, reply.metrics_text);
      break;
    case Verb::kQuery:
      TSQ_CHECK_MSG(reply.results.size() == 1,
                    "kQuery reply carries exactly one result, got %zu",
                    reply.results.size());
      PutBatchResult(&payload, reply.results[0]);
      break;
    case Verb::kBatch:
      serde::PutU64(&payload, reply.results.size());
      for (const engine::BatchResult& r : reply.results) {
        PutBatchResult(&payload, r);
      }
      break;
    case Verb::kInsert:
      serde::PutU64(&payload, reply.insert_base);
      serde::PutU64(&payload, reply.insert_count);
      break;
    case Verb::kSelfJoin:
      serde::PutU64(&payload, reply.pairs.size());
      for (const JoinPair& p : reply.pairs) {
        serde::PutU64(&payload, p.first);
        serde::PutU64(&payload, p.second);
        serde::PutDouble(&payload, p.distance);
      }
      break;
    case Verb::kReindex:
      serde::PutU64(&payload, reply.reindex_epoch);
      break;
  }
  EncodeFrame(payload, frame);
}

Status DecodeReply(const uint8_t* payload, size_t size, Reply* out) {
  *out = Reply{};  // a reused out-struct must not leak stale fields
  Reader reader(payload, size);
  uint32_t code = 0;
  TSQ_RETURN_IF_ERROR(reader.GetU32(&code));
  if (code > static_cast<uint32_t>(ReplyCode::kBusy)) {
    return Status::Corruption("unknown reply code " + std::to_string(code));
  }
  out->code = static_cast<ReplyCode>(code);
  uint32_t verb = 0;
  TSQ_RETURN_IF_ERROR(reader.GetU32(&verb));
  TSQ_RETURN_IF_ERROR(CheckVerb(verb));
  out->verb = static_cast<Verb>(verb);
  TSQ_RETURN_IF_ERROR(reader.GetU64(&out->id));
  if (out->code == ReplyCode::kError) {
    TSQ_RETURN_IF_ERROR(GetStatus(&reader, &out->error));
    if (out->error.ok()) {
      return Status::Corruption("error reply carries an OK status");
    }
  } else if (out->code == ReplyCode::kOk) {
    switch (out->verb) {
      case Verb::kPing:
      case Verb::kFlush:
      case Verb::kRepair:
        break;
      case Verb::kStats:
        TSQ_RETURN_IF_ERROR(GetDatabaseStats(&reader, &out->stats));
        TSQ_RETURN_IF_ERROR(GetServerCounters(&reader, &out->server_counters));
        break;
      case Verb::kMetrics:
        TSQ_RETURN_IF_ERROR(reader.GetString(&out->metrics_text));
        break;
      case Verb::kQuery: {
        engine::BatchResult result;
        TSQ_RETURN_IF_ERROR(GetBatchResult(&reader, &result));
        out->results.push_back(std::move(result));
        break;
      }
      case Verb::kBatch: {
        uint64_t count = 0;
        TSQ_RETURN_IF_ERROR(reader.GetU64(&count));
        for (uint64_t i = 0; i < count; ++i) {
          engine::BatchResult result;
          TSQ_RETURN_IF_ERROR(GetBatchResult(&reader, &result));
          out->results.push_back(std::move(result));
        }
        break;
      }
      case Verb::kInsert: {
        uint64_t base = 0;
        TSQ_RETURN_IF_ERROR(reader.GetU64(&base));
        out->insert_base = base;
        TSQ_RETURN_IF_ERROR(reader.GetU64(&out->insert_count));
        break;
      }
      case Verb::kSelfJoin: {
        uint64_t count = 0;
        TSQ_RETURN_IF_ERROR(reader.GetU64(&count));
        for (uint64_t i = 0; i < count; ++i) {
          JoinPair p;
          uint64_t first = 0;
          uint64_t second = 0;
          TSQ_RETURN_IF_ERROR(reader.GetU64(&first));
          TSQ_RETURN_IF_ERROR(reader.GetU64(&second));
          TSQ_RETURN_IF_ERROR(reader.GetDouble(&p.distance));
          p.first = first;
          p.second = second;
          out->pairs.push_back(p);
        }
        break;
      }
      case Verb::kReindex:
        TSQ_RETURN_IF_ERROR(reader.GetU64(&out->reindex_epoch));
        break;
    }
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("reply carries " +
                              std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return Status::OK();
}

Status FrameReader::Feed(
    const uint8_t* data, size_t size,
    const std::function<Status(const uint8_t*, size_t)>& sink) {
  if (!fault_.ok()) return fault_;
  buf_.insert(buf_.end(), data, data + size);
  auto fail = [this](Status status) {
    fault_ = status;
    return status;
  };
  while (buf_.size() - pos_ >= kFrameHeaderBytes) {
    Reader header(buf_.data() + pos_, kFrameHeaderBytes);
    uint32_t magic = 0;
    uint32_t crc = 0;
    uint64_t len = 0;
    TSQ_RETURN_IF_ERROR(header.GetU32(&magic));
    TSQ_RETURN_IF_ERROR(header.GetU32(&crc));
    TSQ_RETURN_IF_ERROR(header.GetU64(&len));
    if (magic != kFrameMagic) {
      return fail(Status::Corruption("bad frame magic"));
    }
    if (len > max_payload_) {
      return fail(Status::Corruption(
          "frame declares " + std::to_string(len) + " payload bytes (limit " +
          std::to_string(max_payload_) + ")"));
    }
    if (buf_.size() - pos_ - kFrameHeaderBytes < len) break;  // incomplete
    const uint8_t* payload = buf_.data() + pos_ + kFrameHeaderBytes;
    if (serde::Crc32(payload, static_cast<size_t>(len)) != crc) {
      return fail(Status::Corruption("frame payload CRC mismatch"));
    }
    if (Status status = sink(payload, static_cast<size_t>(len));
        !status.ok()) {
      return fail(std::move(status));
    }
    pos_ += kFrameHeaderBytes + static_cast<size_t>(len);
  }
  // Compact the consumed prefix so a long-lived connection's buffer does
  // not grow with traffic served long ago.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return Status::OK();
}

}  // namespace server
}  // namespace tsq
