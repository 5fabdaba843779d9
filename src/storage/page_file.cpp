// Copyright (c) 2026 The tsq Authors.

#include "storage/page_file.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "storage/io_util.h"

namespace tsq {

namespace {

// Header layout (all little-endian u64 at fixed offsets):
//   [0..8)   magic "TSQPGF01"
//   [8..16)  page size
//   [16..24) number of data pages
//   [24..32) reserved: written as 0, ignored on open
constexpr uint64_t kMagic = 0x3130464750515354ull;  // "TSQPGF01" LE
constexpr size_t kHeaderBytes = 32;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

PageFile::PageFile(std::FILE* file, std::string path, size_t page_size)
    : file_(file),
      fd_(fileno(file)),
      path_(std::move(path)),
      page_size_(page_size) {}

PageFile::~PageFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path,
                                                   size_t page_size) {
  if (page_size < kHeaderBytes || page_size % 512 != 0) {
    return Status::InvalidArgument("page size must be a multiple of 512, got " +
                                   std::to_string(page_size));
  }
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::IOError(ErrnoMessage("cannot create page file", path));
  }
  auto pf = std::unique_ptr<PageFile>(new PageFile(f, path, page_size));
  TSQ_RETURN_IF_ERROR(pf->WriteHeader());
  return pf;
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open page file", path));
  }
  uint8_t header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, f) != kHeaderBytes) {
    std::fclose(f);
    return Status::Corruption("page file header truncated: " + path);
  }
  auto get_u64 = [&header](size_t off) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(header[off + i]) << (8 * i);
    }
    return v;
  };
  if (get_u64(0) != kMagic) {
    std::fclose(f);
    return Status::Corruption("bad page file magic: " + path);
  }
  const uint64_t page_size = get_u64(8);
  if (page_size < kHeaderBytes || page_size % 512 != 0) {
    std::fclose(f);
    return Status::Corruption("bad page size in header: " +
                              std::to_string(page_size));
  }
  auto pf = std::unique_ptr<PageFile>(
      new PageFile(f, path, static_cast<size_t>(page_size)));
  pf->num_pages_.store(get_u64(16), std::memory_order_release);
  return pf;
}

Status PageFile::WriteHeader() {
  uint8_t header[kHeaderBytes];
  std::memset(header, 0, sizeof(header));
  auto put_u64 = [&header](size_t off, uint64_t v) {
    for (size_t i = 0; i < 8; ++i) {
      header[off + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put_u64(0, kMagic);
  put_u64(8, page_size_);
  put_u64(16, num_pages_.load(std::memory_order_acquire));
  return WriteRaw(0, header, kHeaderBytes);
}

Status PageFile::ReadRaw(uint64_t offset, void* buf, size_t n) {
  errno = 0;
  if (!PreadExact(fd_, buf, n, offset)) {
    const int err = errno;
    const std::string what =
        "read failed at offset " + std::to_string(offset) + " in";
    if (err != 0) return failpoint::ErrnoError(err, what, path_);
    return Status::IOError("short read at offset " + std::to_string(offset) +
                           " in " + path_);
  }
  return Status::OK();
}

Status PageFile::WriteRaw(uint64_t offset, const void* buf, size_t n) {
  errno = 0;
  if (!PwriteExact(fd_, buf, n, offset)) {
    const int err = errno;
    const std::string what =
        "write failed at offset " + std::to_string(offset) + " in";
    if (err != 0) return failpoint::ErrnoError(err, what, path_);
    return Status::IOError("short write at offset " + std::to_string(offset) +
                           " in " + path_);
  }
  return Status::OK();
}

PageId PageFile::Allocate() {
  // ids start after the header page.
  return num_pages_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

Status PageFile::Read(PageId id, Page* out) {
  TSQ_CHECK(out != nullptr);
  if (id == kInvalidPageId || id > num_pages()) {
    return Status::InvalidArgument("Read: bad page id " + std::to_string(id));
  }
  if (out->size() != page_size_) *out = Page(page_size_);
  static failpoint::Site* fp = failpoint::Register("page_file_read");
  if (fp->armed()) {
    const failpoint::Decision d = failpoint::Evaluate(fp, id);
    if (d.fire()) {
      return failpoint::ErrnoError(d.error_errno != 0 ? d.error_errno : EIO,
                                   "read failed for page " +
                                       std::to_string(id) + " in",
                                   path_);
    }
  }
  return ReadRaw(id * page_size_, out->data(), page_size_);
}

Status PageFile::Write(PageId id, const Page& page) {
  if (id == kInvalidPageId || id > num_pages()) {
    return Status::InvalidArgument("Write: bad page id " + std::to_string(id));
  }
  if (page.size() != page_size_) {
    return Status::InvalidArgument("Write: page size mismatch");
  }
  static failpoint::Site* fp = failpoint::Register("page_file_write");
  if (fp->armed()) {
    const failpoint::Decision d = failpoint::Evaluate(fp, id);
    if (d.fire()) {
      // Short/torn actions land a prefix of the page so recovery sees
      // the bytes a mid-write crash leaves behind.
      const size_t prefix = std::min(d.bytes, page.size());
      if ((d.kind == failpoint::ActionKind::kShortWrite ||
           d.kind == failpoint::ActionKind::kTornWrite) &&
          prefix > 0) {
        (void)!::pwrite(fd_, page.data(), prefix,
                        static_cast<off_t>(id * page_size_));
      }
      if (d.kind == failpoint::ActionKind::kTornWrite) {
        failpoint::CrashProcess("page_file_write");
      }
      return failpoint::ErrnoError(d.error_errno != 0 ? d.error_errno : EIO,
                                   "write failed for page " +
                                       std::to_string(id) + " in",
                                   path_);
    }
  }
  return WriteRaw(id * page_size_, page.data(), page_size_);
}

Status PageFile::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  TSQ_RETURN_IF_ERROR(WriteHeader());
  // All data I/O is positioned on the fd; flush any stdio-buffered state
  // (none in steady operation) for symmetry with the pre-v2 contract.
  if (std::fflush(file_) != 0) {
    return Status::IOError(ErrnoMessage("fflush failed for", path_));
  }
  // Then push everything the OS holds to stable storage: Sync is the
  // durability barrier the merge publish path relies on.
  static failpoint::Site* fp = failpoint::Register("page_file_sync");
  if (fp->armed()) {
    const failpoint::Decision d = failpoint::Evaluate(fp, 0);
    if (d.kind == failpoint::ActionKind::kTornWrite ||
        d.kind == failpoint::ActionKind::kCrash) {
      failpoint::CrashProcess("page_file_sync");
    }
    if (d.fire()) {
      return failpoint::ErrnoError(d.error_errno != 0 ? d.error_errno : EIO,
                                   "fdatasync failed for", path_);
    }
  }
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync failed for", path_));
  }
  return Status::OK();
}

}  // namespace tsq
