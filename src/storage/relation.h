// Copyright (c) 2026 The tsq Authors.
//
// The sequence relation: a segmented heap store of full time-series
// records. The paper assumes "relations are unary — simply sets of
// sequences" (Sec. 3); tsq stores, per record, the series name, the
// time-domain samples, and the frequency-domain coefficients. The
// frequency-domain copy exists because the paper's tuned sequential-scan
// baseline scans coefficients ("we do the sequential scanning on the
// relation that stores the series in the frequency domain", Sec. 5) and
// because postprocessing verifies true Euclidean distances (Parseval makes
// either domain usable).

#ifndef TSQ_STORAGE_RELATION_H_
#define TSQ_STORAGE_RELATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dft/complex_vec.h"
#include "series/time_series.h"
#include "storage/serde.h"

namespace tsq {

/// One stored sequence with both representations.
struct SeriesRecord {
  SeriesId id = kInvalidSeriesId;
  std::string name;
  RealVec values;   ///< time domain
  ComplexVec dft;   ///< frequency domain (unitary convention)
};

/// Scan counters for the sequential-scan baselines. Relaxed atomics so
/// concurrent readers can snapshot them race-free; copies by value like a
/// plain aggregate. Reset() stores each counter individually (relaxed) so
/// a reset racing concurrent scanners is an ordinary atomic store per
/// field, never a whole-struct reassignment.
struct RelationStats {
  std::atomic<uint64_t> records_read{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};

  RelationStats() = default;
  RelationStats(const RelationStats& other) { *this = other; }
  RelationStats& operator=(const RelationStats& other) {
    records_read = other.records_read.load(std::memory_order_relaxed);
    bytes_read = other.bytes_read.load(std::memory_order_relaxed);
    bytes_written = other.bytes_written.load(std::memory_order_relaxed);
    return *this;
  }

  void Reset() {
    records_read.store(0, std::memory_order_relaxed);
    bytes_read.store(0, std::memory_order_relaxed);
    bytes_written.store(0, std::memory_order_relaxed);
  }
};

namespace internal {

/// Lock-free append-only map id -> packed (segment, offset). Entries live
/// in fixed-size chunks that never move once allocated, so readers index
/// without any lock; a chunk pointer is published with a release store and
/// an entry with a release store after its record bytes are durable in the
/// page cache. kEmpty marks a slot whose record has not been published.
class RecordDirectory {
 public:
  static constexpr uint64_t kEmpty = ~0ull;
  static constexpr size_t kChunkBits = 13;  // 8192 entries per chunk
  static constexpr size_t kChunkSize = 1ull << kChunkBits;
  static constexpr size_t kMaxChunks = 1ull << 16;  // ~536M records

  RecordDirectory();
  ~RecordDirectory();
  RecordDirectory(const RecordDirectory&) = delete;
  RecordDirectory& operator=(const RecordDirectory&) = delete;

  /// Publishes the entry for `id` (release). Fails only when `id` exceeds
  /// the directory capacity or a chunk allocation fails.
  Status Publish(uint64_t id, uint64_t packed);

  /// The published entry for `id`, or kEmpty when nothing was published
  /// there (acquire).
  uint64_t Load(uint64_t id) const;

 private:
  struct Chunk {
    std::atomic<uint64_t> entries[kChunkSize];
  };

  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  std::mutex grow_mutex_;  // serializes chunk allocation only
};

}  // namespace internal

/// Append-only store of SeriesRecords addressed by dense SeriesId
/// (0..size()-1), spread over `num_segments` segment files
/// `<path>.0 .. <path>.N-1`. Every read (Get, Scan, ScanSegment, and the
/// Open/Repair recovery walk) verifies the record's payload CRC, and a
/// header that claims more bytes than its segment holds returns
/// Corruption without allocating them. A record's
/// segment is fixed by its id (`id % num_segments`), and within a segment
/// records are laid out in id order, so every segment file's bytes are a
/// pure function of the record sequence — independent of which threads
/// appended, at any concurrency.
///
/// Concurrency contract (v2 — the write half of the system contract):
///
/// * Readers never block on ingest. Get and Scan are safe from any number
///   of threads, concurrently with each other and with any number of
///   appenders: reads use positioned pread(2) (no shared file position),
///   the id -> (segment, offset) directory is a lock-free chunked array
///   published entry-by-entry with release stores, and size() is a dense
///   watermark — every id below it is fully written and flushed. No read
///   path takes a mutex.
/// * One pread per record. A read fetches header and payload with a
///   single pread into storage its thread reuses across reads, sized by
///   that thread's previous record; only a record longer than that takes
///   a second pread. The storage and size live in thread-local state, so
///   concurrent readers write nothing shared except RelationStats, which
///   counts each record's header + payload bytes, not the bytes read.
/// * Many concurrent appenders, one active writer per segment. Append may
///   be called from any number of threads at once; each call reserves the
///   next dense id, then appends under its segment's mutex. Batch ingest
///   pre-reserves an id range with ReserveIds and appends each id with
///   AppendWithId; appends to one segment are admitted strictly in id
///   order (a per-segment turnstile), which is what makes the on-disk
///   bytes deterministic. Every reserved id must eventually be appended —
///   an abandoned reservation stalls the watermark and any later appender
///   of the same segment.
/// * Each append flushes the stdio buffer before publishing its directory
///   entry, so a record is visible to pread readers the moment its id is.
///   Flush() pushes buffered bytes to the OS; Sync() additionally
///   fdatasyncs every segment — the durability barrier group commit and
///   explicit database flushes sit on.
/// * A failed append write poisons the relation: all current and future
///   appenders (including ones blocked on their segment turn) return the
///   error, and size() freezes at the last dense prefix. Already-published
///   records stay readable throughout. The poison is repairable: Repair()
///   re-runs the Open-time recovery walk over the live segment files,
///   rewinds to the largest dense id prefix, and clears the poison so
///   appends can resume — callers must retire any ids reserved but not
///   appended before the fault (they are re-issued after the rewind).
/// * Appends traverse the `relation_append` failpoint and Sync the
///   `relation_sync` failpoint (common/failpoint.h), so every disk-full /
///   short-write / crash-mid-append behavior is testable on demand.
/// * Open recovers all segments in parallel. A torn tail record (truncated
///   header/payload, or a CRC mismatch on a segment's last record — the
///   crash-mid-append signatures) is dropped and the segment truncated to
///   its last whole record; mid-file corruption is still an error. After
///   the per-segment walks, the largest dense id prefix is kept and any
///   fully-written record above it (a sibling segment lost an earlier id)
///   is truncated away too, so reopen always yields ids 0..size()-1 with
///   no holes.
class Relation {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(Relation);
  ~Relation();

  /// Maximum segment files per relation (the directory packs the segment
  /// index into 16 bits).
  static constexpr size_t kMaxSegments = 1ull << 16;

  /// Creates a new (empty) relation at `path` with `num_segments` segment
  /// files `<path>.0 .. <path>.N-1`, truncating existing ones (stale
  /// higher-numbered segment files from a previous, wider relation are
  /// removed).
  static Result<std::unique_ptr<Relation>> Create(const std::string& path,
                                                  size_t num_segments = 1);

  /// Opens an existing relation, discovering its segment files and
  /// rebuilding the record directory by one recovery pass per segment,
  /// run in parallel. See the class contract for torn-tail handling.
  static Result<std::unique_ptr<Relation>> Open(const std::string& path);

  /// Appends a record; returns its assigned id (dense, starting at 0).
  /// Safe from any number of threads at once.
  Result<SeriesId> Append(const std::string& name, const RealVec& values,
                          const ComplexVec& dft);

  /// Reserves `count` consecutive ids and returns the first. The caller
  /// must append every reserved id via AppendWithId; ids mapping to the
  /// same segment must be appended in ascending order from one thread
  /// (other threads' reservations interleave safely — the segment
  /// turnstile orders them globally).
  Result<SeriesId> ReserveIds(uint64_t count);

  /// Appends the record for a previously reserved id. Blocks until every
  /// lower reserved id of the same segment has been appended.
  Status AppendWithId(SeriesId id, const std::string& name,
                      const RealVec& values, const ComplexVec& dft);

  /// Reads one record by id. Safe under concurrent readers and
  /// appenders. Serves every fully appended record — including one whose
  /// id is still above size() because a lower reserved id is mid-append —
  /// so an index that learned an id from its completed append can always
  /// resolve it; NotFound only for ids never (or not yet) appended.
  Result<SeriesRecord> Get(SeriesId id) const;

  /// Full scan in id order; the callback returns false to stop early.
  /// Safe under concurrent readers and appenders (sees the dense prefix
  /// at call time).
  Status Scan(const std::function<bool(const SeriesRecord&)>& fn) const;

  /// Scans one segment's records in id order (ids segment, segment+N,
  /// ...), visiting only ids below `limit_id` and below the current dense
  /// watermark. The per-segment half of a parallel full scan: the N
  /// segment scans together visit exactly the ids a Scan would.
  Status ScanSegment(size_t segment, uint64_t limit_id,
                     const std::function<bool(const SeriesRecord&)>& fn) const;

  /// Number of records in the dense prefix: every id below this is fully
  /// written, flushed and readable.
  uint64_t size() const { return visible_.load(std::memory_order_acquire); }

  /// Number of segment files.
  size_t num_segments() const { return segments_.size(); }

  /// Path of one segment file (for white-box tests and tools).
  std::string SegmentPath(size_t segment) const;

  /// Flushes buffered writes to the OS.
  Status Flush();

  /// Flush() plus fdatasync(2) of every segment: on return every record
  /// below size() has reached stable storage.
  Status Sync();

  /// True once a write fault poisoned the relation (appends fail until
  /// Repair()).
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Recovers from a write fault in place: re-walks every segment file
  /// (the same walk Open performs), truncates torn or above-prefix
  /// records, rewinds the id counters to the largest dense prefix, clears
  /// directory entries above it, and lifts the poison. Requires no
  /// concurrent appenders (blocked ones have already returned the poison
  /// error); readers may continue throughout. Fails — and stays poisoned
  /// — while the underlying fault persists.
  Status Repair();

  /// Scan counters.
  const RelationStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  /// One segment file plus its append turnstile.
  struct Segment {
    std::FILE* file = nullptr;
    int fd = -1;
    std::string path;
    std::mutex mutex;                  // guards file writes + fields below
    std::condition_variable turn_cv;   // next_id advanced or poisoned
    uint64_t next_id = 0;              // next id this segment admits
    uint64_t end_offset = 0;           // append position
  };

  explicit Relation(std::string path);

  Status ReadRecordAt(const Segment& seg, uint64_t offset,
                      SeriesRecord* out) const;

  /// Advances the dense watermark over every contiguously published entry.
  void AdvanceVisible();

  /// Marks the relation failed, wakes every blocked appender.
  void Poison(const Status& status);
  Status poison_status() const;

  std::string path_;
  std::vector<std::unique_ptr<Segment>> segments_;
  internal::RecordDirectory directory_;
  std::atomic<uint64_t> next_id_{0};   // reservation counter
  std::atomic<uint64_t> visible_{0};   // dense published watermark
  std::atomic<bool> poisoned_{false};
  mutable std::mutex poison_mutex_;    // guards poison_status_
  Status poison_status_;
  mutable RelationStats stats_;
};

}  // namespace tsq

#endif  // TSQ_STORAGE_RELATION_H_
