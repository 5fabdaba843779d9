// Copyright (c) 2026 The tsq Authors.
//
// File-backed page store. Layout:
//
//   page 0           header: magic, format version, page size, page count,
//                    free-list head
//   pages 1..N       data pages; a freed page stores the id of the next
//                    free page in its first 8 bytes (intrusive free list)
//
// PageFile performs raw page I/O; caching, pinning and the I/O counters
// live in BufferPool.

#ifndef TSQ_STORAGE_PAGE_FILE_H_
#define TSQ_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace tsq {

/// A file of fixed-size pages with allocate/free/read/write operations.
///
/// Concurrency contract (v2): Read and Write of *allocated* pages are safe
/// from any number of threads — they use positioned pread/pwrite on the
/// file descriptor, so there is no shared file position and no lock on the
/// data path. Allocate, Free and Sync mutate the header state (page count,
/// free list) and serialize on an internal mutex. Concurrent Read/Write of
/// the *same* page require caller coordination (in the query stack the
/// BufferPool provides it: a page lives in at most one frame, and its
/// load and write-back never overlap).
class PageFile {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(PageFile);
  ~PageFile();

  /// Creates a new page file at `path` (truncating any existing file).
  static Result<std::unique_ptr<PageFile>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize);

  /// Opens an existing page file and validates its header.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path);

  /// Allocates a page (recycling the free list when possible) and returns
  /// its id. The page content on disk is unspecified until written.
  Result<PageId> Allocate();

  /// Returns a page to the free list. Requires a valid, allocated id.
  Status Free(PageId id);

  /// Reads page `id` into `out` (resized to the page size).
  Status Read(PageId id, Page* out);

  /// Writes `page` (must match the page size) to page `id`.
  Status Write(PageId id, const Page& page);

  /// Persists the header and all previously written pages to stable
  /// storage (fdatasync). Called on explicit flush and merge-publish
  /// paths only, never per page write. Returns OK at once, touching
  /// nothing, when no page was written or allocated and no page freed
  /// since Open or the last successful Sync.
  Status Sync();

  /// Page size in bytes.
  size_t page_size() const { return page_size_; }

  /// Total pages ever allocated (including freed ones), excluding header.
  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }

  // Fault injection: every Read(id) traverses the `page_file_read`
  // failpoint and every Write(id) traverses `page_file_write` (arg =
  // the page id, after id validation, before the raw I/O, on the
  // calling thread). Tests park readers/writers on a gate with
  // failpoint::SetCallback or inject errno faults with
  // failpoint::Configure — see common/failpoint.h.

 private:
  PageFile(std::FILE* file, std::string path, size_t page_size);

  Status WriteHeader();  // caller holds mutex_ (or is single-threaded)
  Status SyncLocked();   // header write + fdatasync; caller holds mutex_
  Status ReadRaw(uint64_t offset, void* buf, size_t n);
  Status WriteRaw(uint64_t offset, const void* buf, size_t n);

  std::FILE* file_;
  int fd_;  // fileno(file_); all data I/O is positioned on this
  std::string path_;
  size_t page_size_;
  std::mutex mutex_;  // guards free_list_head_ and header writes
  std::atomic<uint64_t> num_pages_{0};  // data pages allocated so far
  PageId free_list_head_ = kInvalidPageId;
  // Set after every change Sync would persist (a page write, an
  // allocation, a free; the header a Create wrote); cleared by Sync.
  std::atomic<bool> unsynced_{false};
};

}  // namespace tsq

#endif  // TSQ_STORAGE_PAGE_FILE_H_
