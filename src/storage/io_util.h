// Copyright (c) 2026 The tsq Authors.
//
// Positioned POSIX I/O helpers shared by the storage layer (PageFile,
// Relation). Both read paths rely on pread/pwrite having no shared file
// position, which is what makes them safe from any number of threads.
//
// Both helpers carry a failpoint (`io_pread` / `io_pwrite`, arg = file
// offset): the deepest injection sites in the stack, under every page
// and record I/O. See common/failpoint.h for the action grammar.

#ifndef TSQ_STORAGE_IO_UTIL_H_
#define TSQ_STORAGE_IO_UTIL_H_

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>

#include "common/failpoint.h"

namespace tsq {

/// Positioned read of up to `count` bytes; retries partial reads and
/// EINTR, and stops early only at end of file. Returns the bytes read
/// (fewer than `count` exactly when the file ends inside the range), or
/// -1 on error.
inline ssize_t PreadUpTo(int fd, void* buf, size_t count, uint64_t offset) {
  static failpoint::Site* fp = failpoint::Register("io_pread");
  if (fp->armed()) {
    const failpoint::Decision d = failpoint::Evaluate(fp, offset);
    if (d.fire()) {  // every fault action reads as a failed pread
      errno = d.error_errno != 0 ? d.error_errno : EIO;
      return -1;
    }
  }
  uint8_t* cursor = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < count) {
    const ssize_t n = ::pread(fd, cursor + done, count - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // end of file
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

/// Positioned read of exactly `count` bytes. False on error or EOF before
/// `count` bytes arrived.
inline bool PreadExact(int fd, void* buf, size_t count, uint64_t offset) {
  return PreadUpTo(fd, buf, count, offset) == static_cast<ssize_t>(count);
}

/// Positioned write of exactly `count` bytes; retries partial writes and
/// EINTR. False on error (including a zero-byte write for a non-empty
/// range, which would otherwise loop forever).
inline bool PwriteExact(int fd, const void* buf, size_t count,
                        uint64_t offset) {
  const uint8_t* cursor = static_cast<const uint8_t*>(buf);
  static failpoint::Site* fp = failpoint::Register("io_pwrite");
  if (fp->armed()) {
    const failpoint::Decision d = failpoint::Evaluate(fp, offset);
    if (d.fire()) {
      // Short and torn writes land a prefix of the payload first, so
      // the file is left in the partially-written state a real fault
      // (or crash mid-write) produces.
      const size_t prefix = d.bytes < count ? d.bytes : count;
      if ((d.kind == failpoint::ActionKind::kShortWrite ||
           d.kind == failpoint::ActionKind::kTornWrite) &&
          prefix > 0) {
        (void)!::pwrite(fd, cursor, prefix, static_cast<off_t>(offset));
      }
      if (d.kind == failpoint::ActionKind::kTornWrite) {
        failpoint::CrashProcess("io_pwrite");
      }
      errno = d.error_errno != 0 ? d.error_errno : EIO;
      return false;
    }
  }
  while (count > 0) {
    const ssize_t n = ::pwrite(fd, cursor, count, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    cursor += n;
    offset += static_cast<uint64_t>(n);
    count -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace tsq

#endif  // TSQ_STORAGE_IO_UTIL_H_
