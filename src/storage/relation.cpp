// Copyright (c) 2026 The tsq Authors.

#include "storage/relation.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "storage/io_util.h"

namespace tsq {

namespace {

// Record wire format (identical in every segment file):
//   u32 magic | u32 payload_crc | u64 payload_len | payload
// payload:
//   u64 id | string name | realvec values | complexvec dft
constexpr uint32_t kRecordMagic = 0x54535152;  // "RQST"
constexpr size_t kRecordHeaderBytes = 4 + 4 + 8;

// Directory entry packing: segment index in the top 16 bits, byte offset
// in the low 48.
constexpr int kOffsetBits = 48;
constexpr uint64_t kOffsetMask = (1ull << kOffsetBits) - 1;

uint64_t PackEntry(size_t segment, uint64_t offset) {
  return (static_cast<uint64_t>(segment) << kOffsetBits) | offset;
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

serde::Buffer EncodeRecord(SeriesId id, const std::string& name,
                           const RealVec& values, const ComplexVec& dft) {
  serde::Buffer payload;
  serde::PutU64(&payload, id);
  serde::PutString(&payload, name);
  serde::PutRealVec(&payload, values);
  serde::PutComplexVec(&payload, dft);

  serde::Buffer record;
  serde::PutU32(&record, kRecordMagic);
  serde::PutU32(&record, serde::Crc32(payload));
  serde::PutU64(&record, payload.size());
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

/// Decodes and validates one record frame header (magic + plausible
/// length). The single definition of "a well-formed frame" shared by the
/// read path (ReadRecordAt) and recovery (RecoverSegment), so the two can
/// never drift apart on what they accept.
Status DecodeRecordHeader(const uint8_t* header, uint64_t offset,
                          const std::string& path, uint32_t* crc,
                          uint64_t* payload_len) {
  serde::Reader reader(header, kRecordHeaderBytes);
  uint32_t magic = 0;
  TSQ_RETURN_IF_ERROR(reader.GetU32(&magic));
  TSQ_RETURN_IF_ERROR(reader.GetU32(crc));
  TSQ_RETURN_IF_ERROR(reader.GetU64(payload_len));
  if (magic != kRecordMagic) {
    return Status::Corruption("bad record magic at offset " +
                              std::to_string(offset) + " in '" + path + "'");
  }
  if (*payload_len > (1ull << 32)) {
    return Status::Corruption("implausible record length " +
                              std::to_string(*payload_len) + " at offset " +
                              std::to_string(offset) + " in '" + path + "'");
  }
  return Status::OK();
}

// Record reads. A read asks for the thread's previous record size plus
// kReadSlackBytes, so records of one relation (whose sizes differ only by
// name length) take one pread each; a thread's first read asks for
// kInitialReadBytes. Storage grown past kMaxKeptReadBytes is released
// when a read completes.
constexpr uint64_t kInitialReadBytes = 4096;
constexpr uint64_t kReadSlackBytes = 64;
constexpr uint64_t kMaxKeptReadBytes = 1ull << 20;

/// The storage a thread's record reads land in, reused across reads, and
/// the size of its next read. Only its own thread touches it: readers
/// share no read-path state beyond RelationStats.
struct ReadStorage {
  serde::Buffer bytes;
  uint64_t read_size = kInitialReadBytes;
};

ReadStorage& ThisThreadReadStorage() {
  thread_local ReadStorage storage;
  return storage;
}

/// One segment's recovery walk result.
struct SegmentRecovery {
  Status status;
  /// (offset, end_offset) per recovered record, in id order.
  std::vector<std::pair<uint64_t, uint64_t>> records;
};

/// Walks segment `s` of an N-segment relation from the front, collecting
/// whole records. Stops silently at a torn tail (truncated header or
/// payload, or a CRC mismatch on the segment's last record); fails with
/// Corruption on mid-file damage or an id that breaks the segment's
/// s, s+N, s+2N, ... sequence.
SegmentRecovery RecoverSegment(int fd, const std::string& path, size_t s,
                               size_t num_segments, uint64_t file_size) {
  SegmentRecovery out;
  uint64_t offset = 0;
  while (offset < file_size) {
    if (offset + kRecordHeaderBytes > file_size) break;  // torn header
    uint8_t header[kRecordHeaderBytes];
    if (!PreadExact(fd, header, sizeof(header), offset)) {
      // In-bounds read (no writers during recovery), so this is a real
      // disk error, not EOF — surface it rather than truncating good
      // records as a "torn tail".
      out.status = Status::IOError("read failed at offset " +
                                   std::to_string(offset) +
                                   " while recovering '" + path + "'");
      return out;
    }
    uint32_t crc = 0;
    uint64_t payload_len = 0;
    out.status = DecodeRecordHeader(header, offset, path, &crc, &payload_len);
    if (!out.status.ok()) return out;
    const uint64_t end = offset + kRecordHeaderBytes + payload_len;
    if (end > file_size) break;  // torn payload
    serde::Buffer payload(payload_len);
    if (payload_len > 0 &&
        !PreadExact(fd, payload.data(), payload_len,
                    offset + kRecordHeaderBytes)) {
      // In bounds per the end <= file_size check above: a disk error.
      out.status = Status::IOError("read failed at offset " +
                                   std::to_string(offset) +
                                   " while recovering '" + path + "'");
      return out;
    }
    if (serde::Crc32(payload) != crc) {
      if (end == file_size) break;  // torn tail record
      out.status = Status::Corruption("record checksum mismatch at offset " +
                                      std::to_string(offset) + " in '" +
                                      path + "'");
      return out;
    }
    serde::Reader reader(payload);
    uint64_t id = 0;
    if (!reader.GetU64(&id).ok()) {
      out.status = Status::Corruption("unreadable record id at offset " +
                                      std::to_string(offset) + " in '" +
                                      path + "'");
      return out;
    }
    const uint64_t expected = s + out.records.size() * num_segments;
    if (id != expected) {
      out.status = Status::Corruption(
          "record id " + std::to_string(id) + " at offset " +
          std::to_string(offset) + " in '" + path + "' (expected " +
          std::to_string(expected) + ")");
      return out;
    }
    out.records.emplace_back(offset, end);
    offset = end;
  }
  return out;
}

}  // namespace

namespace internal {

RecordDirectory::RecordDirectory()
    : chunks_(new std::atomic<Chunk*>[kMaxChunks]) {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

RecordDirectory::~RecordDirectory() {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    delete chunks_[i].load(std::memory_order_relaxed);
  }
}

Status RecordDirectory::Publish(uint64_t id, uint64_t packed) {
  const uint64_t chunk_index = id >> kChunkBits;
  if (chunk_index >= kMaxChunks) {
    return Status::Internal("relation directory full (id " +
                            std::to_string(id) + ")");
  }
  Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    std::lock_guard<std::mutex> lock(grow_mutex_);
    chunk = chunks_[chunk_index].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new Chunk;
      for (size_t i = 0; i < kChunkSize; ++i) {
        chunk->entries[i].store(kEmpty, std::memory_order_relaxed);
      }
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
  }
  // seq_cst, not release: the publish-then-advance rendezvous with
  // AdvanceVisible needs a single total order over entry stores and
  // loads. With only acq/rel, appender A (id k) and appender B (id k+1)
  // can each publish, then each read the other's slot as still-empty
  // (store-load reordering), and both exit with entry k+1 published but
  // the watermark stuck below it forever. Under seq_cst that interleaving
  // is a cycle in the total order and cannot happen. (On x86 the extra
  // cost is one xchg per append — noise next to the fwrite+fflush.)
  chunk->entries[id & (kChunkSize - 1)].store(packed,
                                              std::memory_order_seq_cst);
  return Status::OK();
}

uint64_t RecordDirectory::Load(uint64_t id) const {
  const uint64_t chunk_index = id >> kChunkBits;
  if (chunk_index >= kMaxChunks) return kEmpty;
  const Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) return kEmpty;
  // seq_cst to pair with Publish (see above); compiles to a plain load on
  // x86/ARM64, so the read paths stay lock-free and fence-free.
  return chunk->entries[id & (kChunkSize - 1)].load(std::memory_order_seq_cst);
}

}  // namespace internal

Relation::Relation(std::string path) : path_(std::move(path)) {}

Relation::~Relation() {
  for (const auto& seg : segments_) {
    if (seg != nullptr && seg->file != nullptr) std::fclose(seg->file);
  }
}

std::string Relation::SegmentPath(size_t segment) const {
  return path_ + "." + std::to_string(segment);
}

Result<std::unique_ptr<Relation>> Relation::Create(const std::string& path,
                                                   size_t num_segments) {
  if (num_segments == 0 || num_segments > kMaxSegments) {
    return Status::InvalidArgument("relation segment count must be in [1, " +
                                   std::to_string(kMaxSegments) + "], got " +
                                   std::to_string(num_segments));
  }
  auto rel = std::unique_ptr<Relation>(new Relation(path));
  // Drop leftovers of an earlier layout at this path: the pre-segment
  // single heap file and any higher-numbered segment files.
  std::remove(path.c_str());
  for (size_t i = num_segments;; ++i) {
    if (std::remove(rel->SegmentPath(i).c_str()) != 0) break;
  }
  for (size_t i = 0; i < num_segments; ++i) {
    auto seg = std::make_unique<Segment>();
    seg->path = rel->SegmentPath(i);
    seg->file = std::fopen(seg->path.c_str(), "wb+");
    if (seg->file == nullptr) {
      return Status::IOError(ErrnoMessage("cannot create relation segment",
                                          seg->path));
    }
    seg->fd = fileno(seg->file);
    seg->next_id = i;
    rel->segments_.push_back(std::move(seg));
  }
  return rel;
}

Result<std::unique_ptr<Relation>> Relation::Open(const std::string& path) {
  auto rel = std::unique_ptr<Relation>(new Relation(path));
  // Discover the segment files written by Create: <path>.0 .. <path>.N-1.
  std::vector<uint64_t> file_sizes;
  for (size_t i = 0; i < kMaxSegments; ++i) {
    const std::string seg_path = rel->SegmentPath(i);
    std::FILE* f = std::fopen(seg_path.c_str(), "rb+");
    if (f == nullptr) break;
    if (std::fseek(f, 0, SEEK_END) != 0) {
      std::fclose(f);
      return Status::IOError(ErrnoMessage("seek failed in", seg_path));
    }
    auto seg = std::make_unique<Segment>();
    seg->path = seg_path;
    seg->file = f;
    seg->fd = fileno(f);
    file_sizes.push_back(static_cast<uint64_t>(std::ftell(f)));
    rel->segments_.push_back(std::move(seg));
  }
  const size_t n = rel->segments_.size();
  if (n == 0) {
    return Status::IOError("cannot open relation '" + path +
                           "': no segment files (" + path + ".0 ...)");
  }

  // Recover every segment in parallel; each walk is independent.
  std::vector<SegmentRecovery> recoveries(n);
  auto recover_one = [&](size_t s) {
    recoveries[s] = RecoverSegment(rel->segments_[s]->fd,
                                   rel->segments_[s]->path, s, n,
                                   file_sizes[s]);
  };
  if (n == 1) {
    recover_one(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (size_t s = 0; s < n; ++s) workers.emplace_back(recover_one, s);
    for (std::thread& w : workers) w.join();
  }
  for (const SegmentRecovery& r : recoveries) {
    TSQ_RETURN_IF_ERROR(r.status);
  }

  // Keep the largest dense id prefix [0, k): segment s recovered ids
  // s, s+n, ..., so the first id it is missing is s + count*n.
  uint64_t k = UINT64_MAX;
  for (size_t s = 0; s < n; ++s) {
    k = std::min(k, static_cast<uint64_t>(s) + recoveries[s].records.size() * n);
  }
  for (size_t s = 0; s < n; ++s) {
    Segment& seg = *rel->segments_[s];
    const auto& records = recoveries[s].records;
    // Records with id >= k sit at the segment's tail (id order == offset
    // order); truncate them away together with any torn bytes.
    size_t kept = 0;
    if (k > s) kept = std::min(records.size(),
                               static_cast<size_t>((k - s + n - 1) / n));
    const uint64_t valid_end = kept == 0 ? 0 : records[kept - 1].second;
    if (valid_end < file_sizes[s]) {
      if (::ftruncate(seg.fd, static_cast<off_t>(valid_end)) != 0) {
        return Status::IOError(ErrnoMessage("cannot truncate torn tail of",
                                            seg.path));
      }
    }
    for (size_t r = 0; r < kept; ++r) {
      TSQ_RETURN_IF_ERROR(rel->directory_.Publish(s + r * n,
                                                  PackEntry(s, records[r].first)));
    }
    seg.end_offset = valid_end;
    seg.next_id = (k <= s) ? s : s + ((k - s + n - 1) / n) * n;
  }
  rel->visible_.store(k, std::memory_order_release);
  rel->next_id_.store(k, std::memory_order_relaxed);
  rel->ResetStats();  // directory rebuild I/O is not query work
  return rel;
}

Result<SeriesId> Relation::ReserveIds(uint64_t count) {
  if (count == 0) {
    return Status::InvalidArgument("cannot reserve zero ids");
  }
  if (poisoned_.load(std::memory_order_acquire)) return poison_status();
  return next_id_.fetch_add(count, std::memory_order_relaxed);
}

Result<SeriesId> Relation::Append(const std::string& name,
                                  const RealVec& values,
                                  const ComplexVec& dft) {
  TSQ_ASSIGN_OR_RETURN(const SeriesId id, ReserveIds(1));
  TSQ_RETURN_IF_ERROR(AppendWithId(id, name, values, dft));
  return id;
}

Status Relation::AppendWithId(SeriesId id, const std::string& name,
                              const RealVec& values, const ComplexVec& dft) {
  if (id >= next_id_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("AppendWithId of unreserved id " +
                                   std::to_string(id));
  }
  const size_t n = segments_.size();
  Segment& seg = *segments_[id % n];
  const serde::Buffer record = EncodeRecord(id, name, values, dft);

  std::unique_lock<std::mutex> lock(seg.mutex);
  seg.turn_cv.wait(lock, [&] {
    return poisoned_.load(std::memory_order_acquire) || seg.next_id == id;
  });
  if (poisoned_.load(std::memory_order_acquire)) return poison_status();

  const uint64_t offset = seg.end_offset;
  Status write_status;
  static failpoint::Site* append_fp = failpoint::Register("relation_append");
  if (append_fp->armed()) {
    const failpoint::Decision d = failpoint::Evaluate(append_fp, id);
    if (d.fire()) {
      // Short and torn writes land a prefix of the record first. The
      // short write then reports a fault (and the error path below
      // truncates the prefix away, as with a real ENOSPC mid-record);
      // the torn write kills the process with the prefix on disk — the
      // crash-mid-append state recovery must clean up.
      const size_t prefix = std::min(d.bytes, record.size());
      if ((d.kind == failpoint::ActionKind::kShortWrite ||
           d.kind == failpoint::ActionKind::kTornWrite) &&
          prefix > 0 &&
          std::fseek(seg.file, static_cast<long>(offset), SEEK_SET) == 0) {
        (void)!std::fwrite(record.data(), 1, prefix, seg.file);
        (void)std::fflush(seg.file);
      }
      if (d.kind == failpoint::ActionKind::kTornWrite) {
        failpoint::CrashProcess("relation_append");
      }
      write_status =
          failpoint::ErrnoError(d.error_errno != 0 ? d.error_errno : EIO,
                                "append failed in", seg.path);
    }
  }
  if (!write_status.ok()) {
    // handled below exactly like a real write failure
  } else if (offset + record.size() > kOffsetMask) {
    write_status = Status::IOError("relation segment '" + seg.path +
                                   "' exceeds the addressable 2^48 bytes");
  } else if (std::fseek(seg.file, static_cast<long>(offset), SEEK_SET) != 0) {
    write_status = Status::IOError(ErrnoMessage("seek failed in", seg.path));
  } else if (std::fwrite(record.data(), 1, record.size(), seg.file) !=
             record.size()) {
    write_status = Status::IOError(ErrnoMessage("append failed in", seg.path));
  } else if (std::fflush(seg.file) != 0) {
    // Drain the stdio buffer so the record is visible to concurrent pread
    // readers the moment the id is published.
    write_status = Status::IOError(ErrnoMessage("fflush failed for", seg.path));
  }
  if (!write_status.ok()) {
    // Drop any partially written bytes so the tail stays parseable, then
    // fail every other appender: a hole in the id sequence can never be
    // repaired, so the error is sticky.
    (void)::ftruncate(seg.fd, static_cast<off_t>(offset));
    lock.unlock();
    Poison(write_status);
    return write_status;
  }
  seg.end_offset = offset + record.size();
  seg.next_id = id + n;
  lock.unlock();
  seg.turn_cv.notify_all();

  stats_.bytes_written += record.size();
  Status published = directory_.Publish(id, PackEntry(id % n, offset));
  if (!published.ok()) {
    Poison(published);
    return published;
  }
  AdvanceVisible();
  return Status::OK();
}

void Relation::AdvanceVisible() {
  // Every appender sweeps the watermark over the contiguously published
  // prefix after its own publish. The seq_cst entry stores/loads (see
  // RecordDirectory::Publish) guarantee that of any two racing sweepers,
  // at least one observes the other's entry, so the last exiting sweeper
  // always covers every published id.
  uint64_t v = visible_.load(std::memory_order_seq_cst);
  while (directory_.Load(v) != internal::RecordDirectory::kEmpty) {
    if (visible_.compare_exchange_weak(v, v + 1,
                                       std::memory_order_seq_cst)) {
      ++v;
    }
    // On CAS failure v was reloaded; re-check from the new watermark.
  }
}

void Relation::Poison(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(poison_mutex_);
    if (!poisoned_.load(std::memory_order_relaxed)) {
      poison_status_ = status;
      poisoned_.store(true, std::memory_order_release);
    }
  }
  // Lock-then-notify so an appender between its predicate check and its
  // wait cannot miss the wakeup.
  for (const auto& seg : segments_) {
    { std::lock_guard<std::mutex> lock(seg->mutex); }
    seg->turn_cv.notify_all();
  }
}

Status Relation::poison_status() const {
  std::lock_guard<std::mutex> lock(poison_mutex_);
  return poison_status_;
}

Status Relation::ReadRecordAt(const Segment& seg, uint64_t offset,
                              SeriesRecord* out) const {
  // One pread fetches header and payload together whenever the record
  // fits the thread's read size (its previous record plus slack).
  ReadStorage& storage = ThisThreadReadStorage();
  serde::Buffer& bytes = storage.bytes;
  if (bytes.size() < storage.read_size) bytes.resize(storage.read_size);
  const ssize_t got =
      PreadUpTo(seg.fd, bytes.data(), storage.read_size, offset);
  if (got < 0) {
    return Status::IOError(ErrnoMessage(
        "read failed at offset " + std::to_string(offset) + " in", seg.path));
  }
  const auto have = static_cast<uint64_t>(got);
  if (have < kRecordHeaderBytes) {
    return Status::Corruption("record header truncated at offset " +
                              std::to_string(offset) + " in '" + seg.path +
                              "'");
  }
  uint32_t crc = 0;
  uint64_t payload_len = 0;
  TSQ_RETURN_IF_ERROR(
      DecodeRecordHeader(bytes.data(), offset, seg.path, &crc, &payload_len));
  const uint64_t frame = kRecordHeaderBytes + payload_len;
  if (frame > have) {
    // A short count means the segment ended inside the record. Otherwise
    // the record is longer than the read size: bound its claimed length
    // by the bytes the segment holds before growing any buffer, so a
    // hostile header cannot make a reader allocate them.
    bool truncated = have < storage.read_size;
    if (!truncated) {
      struct stat st {};
      if (::fstat(seg.fd, &st) != 0) {
        return Status::IOError(ErrnoMessage("cannot stat", seg.path));
      }
      truncated = offset + frame > static_cast<uint64_t>(st.st_size);
    }
    if (truncated) {
      return Status::Corruption("record of " + std::to_string(frame) +
                                " bytes at offset " + std::to_string(offset) +
                                " runs past the end of '" + seg.path + "'");
    }
    bytes.resize(frame);
    if (!PreadExact(seg.fd, bytes.data() + have, frame - have,
                    offset + have)) {
      return Status::IOError(ErrnoMessage(
          "read failed at offset " + std::to_string(offset) + " in",
          seg.path));
    }
  }
  const uint8_t* payload = bytes.data() + kRecordHeaderBytes;
  if (serde::Crc32(payload, payload_len) != crc) {
    return Status::Corruption("record checksum mismatch at offset " +
                              std::to_string(offset) + " in '" + seg.path +
                              "'");
  }

  serde::Reader reader(payload, payload_len);
  uint64_t id = 0;
  TSQ_RETURN_IF_ERROR(reader.GetU64(&id));
  out->id = id;
  TSQ_RETURN_IF_ERROR(reader.GetString(&out->name));
  TSQ_RETURN_IF_ERROR(reader.GetRealVec(&out->values));
  TSQ_RETURN_IF_ERROR(reader.GetComplexVec(&out->dft));

  storage.read_size = std::min(frame + kReadSlackBytes, kMaxKeptReadBytes);
  if (bytes.size() > kMaxKeptReadBytes) serde::Buffer().swap(bytes);
  stats_.records_read += 1;
  stats_.bytes_read += frame;
  return Status::OK();
}

Result<SeriesRecord> Relation::Get(SeriesId id) const {
  // Served from the directory entry, not the dense watermark: a record
  // published above size() (its id reserved after a still-in-flight
  // lower id) is already durable and must be readable — the index learns
  // of an id only after its append completed, so a query racing ingest
  // may ask for it before the watermark catches up.
  const uint64_t entry = directory_.Load(id);
  if (entry == internal::RecordDirectory::kEmpty) {
    return Status::NotFound("no record with id " + std::to_string(id));
  }
  SeriesRecord rec;
  TSQ_RETURN_IF_ERROR(ReadRecordAt(*segments_[entry >> kOffsetBits],
                                   entry & kOffsetMask, &rec));
  return rec;
}

Status Relation::Scan(
    const std::function<bool(const SeriesRecord&)>& fn) const {
  // The watermark at call time bounds the scan: records are immutable
  // once published, so the scan sees a consistent dense prefix even with
  // concurrent appenders.
  const uint64_t limit = visible_.load(std::memory_order_acquire);
  for (uint64_t id = 0; id < limit; ++id) {
    const uint64_t entry = directory_.Load(id);
    SeriesRecord rec;
    TSQ_RETURN_IF_ERROR(ReadRecordAt(*segments_[entry >> kOffsetBits],
                                     entry & kOffsetMask, &rec));
    if (!fn(rec)) break;
  }
  return Status::OK();
}

Status Relation::ScanSegment(
    size_t segment, uint64_t limit_id,
    const std::function<bool(const SeriesRecord&)>& fn) const {
  const size_t n = segments_.size();
  if (segment >= n) {
    return Status::InvalidArgument("no segment " + std::to_string(segment));
  }
  const uint64_t limit =
      std::min(limit_id, visible_.load(std::memory_order_acquire));
  for (uint64_t id = segment; id < limit; id += n) {
    const uint64_t entry = directory_.Load(id);
    SeriesRecord rec;
    TSQ_RETURN_IF_ERROR(ReadRecordAt(*segments_[entry >> kOffsetBits],
                                     entry & kOffsetMask, &rec));
    if (!fn(rec)) break;
  }
  return Status::OK();
}

Status Relation::Flush() {
  for (const auto& seg : segments_) {
    std::lock_guard<std::mutex> lock(seg->mutex);
    if (std::fflush(seg->file) != 0) {
      return Status::IOError(ErrnoMessage("fflush failed for", seg->path));
    }
  }
  return Status::OK();
}

Status Relation::Sync() {
  static failpoint::Site* sync_fp = failpoint::Register("relation_sync");
  for (size_t s = 0; s < segments_.size(); ++s) {
    Segment& seg = *segments_[s];
    std::lock_guard<std::mutex> lock(seg.mutex);
    if (std::fflush(seg.file) != 0) {
      return Status::IOError(ErrnoMessage("fflush failed for", seg.path));
    }
    if (sync_fp->armed()) {
      const failpoint::Decision d = failpoint::Evaluate(sync_fp, s);
      if (d.kind == failpoint::ActionKind::kTornWrite) {
        // The fflush above already landed the bytes in the OS; dying
        // here is "crashed after write, before the sync barrier".
        failpoint::CrashProcess("relation_sync");
      }
      if (d.fire()) {
        return failpoint::ErrnoError(d.error_errno != 0 ? d.error_errno : EIO,
                                     "fdatasync failed for", seg.path);
      }
    }
    if (::fdatasync(seg.fd) != 0) {
      return Status::IOError(ErrnoMessage("fdatasync failed for", seg.path));
    }
  }
  return Status::OK();
}

Status Relation::Repair() {
  // Hold every segment mutex in index order for the whole rewind; any
  // appender arriving concurrently blocks here, then sees either the
  // still-set poison or (after a successful repair) an unreserved-id
  // error for its stale reservation.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(segments_.size());
  for (const auto& seg : segments_) locks.emplace_back(seg->mutex);

  const size_t n = segments_.size();
  std::vector<uint64_t> file_sizes(n);
  std::vector<SegmentRecovery> recoveries(n);
  for (size_t s = 0; s < n; ++s) {
    Segment& seg = *segments_[s];
    // Drain any stdio state left by the faulted append so the recovery
    // walk sees the file's real bytes (errors ignored: the walk and the
    // truncate below decide what survives).
    (void)std::fflush(seg.file);
    if (std::fseek(seg.file, 0, SEEK_END) != 0) {
      return Status::IOError(ErrnoMessage("seek failed in", seg.path));
    }
    file_sizes[s] = static_cast<uint64_t>(std::ftell(seg.file));
    recoveries[s] = RecoverSegment(seg.fd, seg.path, s, n, file_sizes[s]);
    TSQ_RETURN_IF_ERROR(recoveries[s].status);
  }

  // Largest dense id prefix, exactly as Open computes it. Everything the
  // watermark acknowledged is below it: a visible record was written and
  // flushed before publication, so the walk always recovers it.
  uint64_t k = UINT64_MAX;
  for (size_t s = 0; s < n; ++s) {
    k = std::min(k,
                 static_cast<uint64_t>(s) + recoveries[s].records.size() * n);
  }
  for (size_t s = 0; s < n; ++s) {
    Segment& seg = *segments_[s];
    const auto& records = recoveries[s].records;
    size_t kept = 0;
    if (k > s) {
      kept = std::min(records.size(),
                      static_cast<size_t>((k - s + n - 1) / n));
    }
    const uint64_t valid_end = kept == 0 ? 0 : records[kept - 1].second;
    if (valid_end < file_sizes[s]) {
      if (::ftruncate(seg.fd, static_cast<off_t>(valid_end)) != 0) {
        return Status::IOError(ErrnoMessage("cannot truncate torn tail of",
                                            seg.path));
      }
    }
    seg.end_offset = valid_end;
    seg.next_id = (k <= s) ? s : s + ((k - s + n - 1) / n) * n;
  }

  // Ids in [k, reserved) are gone: reserved-but-never-appended ones, and
  // published ones truncated with the non-dense tail. Clear their
  // directory entries so Get goes back to NotFound; the rewound counter
  // re-issues the ids to future appends.
  const uint64_t reserved = next_id_.load(std::memory_order_relaxed);
  for (uint64_t id = k; id < reserved; ++id) {
    TSQ_RETURN_IF_ERROR(
        directory_.Publish(id, internal::RecordDirectory::kEmpty));
  }
  visible_.store(k, std::memory_order_release);
  next_id_.store(k, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(poison_mutex_);
    poison_status_ = Status::OK();
    poisoned_.store(false, std::memory_order_release);
  }
  return Status::OK();
}

}  // namespace tsq
