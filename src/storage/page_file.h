// Copyright (c) 2026 The tsq Authors.
//
// File-backed page store. Layout:
//
//   page 0           header: magic, page size, page count, and a reserved
//                    word (written as 0, ignored on open)
//   pages 1..N       data pages
//
// A file is written once, by the process that creates it, and is
// read-only after Open. PageFile performs raw page I/O; caching, pinning
// and the read counters live in BufferPool, and whoever writes pages
// counts its own writes.

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

/// A file of fixed-size pages with allocate/read/write operations.
///
/// Concurrency contract (v2): Read and Write of *allocated* pages are safe
/// from any number of threads — they use positioned pread/pwrite on the
/// file descriptor, so there is no shared file position and no lock on the
/// data path. Allocate is one atomic increment, and Sync serializes on an
/// internal mutex. Reading a page while another thread writes it is a
/// race the caller must rule out; tsq never does it, since a tree's pages
/// are written by its build before anyone can read them.
class PageFile {
 public:
  TSQ_DISALLOW_COPY_AND_MOVE(PageFile);
  ~PageFile();

  /// Creates a new page file at `path` (truncating any existing file).
  static Result<std::unique_ptr<PageFile>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize);

  /// Opens an existing page file read-only and validates its header:
  /// Read works, and Write and Sync fail.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path);

  /// Reserves the next page id, past every page allocated so far. Does no
  /// I/O: the page's bytes are unspecified until Write gives them, so a
  /// writer allocates a page and then writes it once.
  PageId Allocate();

  /// Reads page `id` into `out` (resized to the page size).
  Status Read(PageId id, Page* out);

  /// Writes `page` (must match the page size) to page `id`.
  Status Write(PageId id, const Page& page);

  /// Writes the header (with the current page count) and persists it and
  /// every written page to stable storage (fdatasync). Only Sync writes
  /// the page count (Create writes 0), so a writer syncs its file before
  /// anyone opens it.
  Status Sync();

  /// Page size in bytes.
  size_t page_size() const { return page_size_; }

  /// Pages allocated so far, excluding the header.
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
  Status ReadRaw(uint64_t offset, void* buf, size_t n);
  Status WriteRaw(uint64_t offset, const void* buf, size_t n);

  std::FILE* file_;
  int fd_;  // fileno(file_); all data I/O is positioned on this
  std::string path_;
  size_t page_size_;
  std::mutex mutex_;  // serializes Sync
  std::atomic<uint64_t> num_pages_{0};  // data pages allocated so far
};

}  // namespace tsq

#endif  // TSQ_STORAGE_PAGE_FILE_H_
