// Copyright (c) 2026 The tsq Authors.
//
// Fixed-size pages — the unit of I/O between the R-tree and disk. The
// paper's experiments report disk accesses per query; in tsq a "disk
// access" is a page read through the buffer pool, or a page write by the
// tree build that writes each page of an index file once.

#ifndef TSQ_STORAGE_PAGE_H_
#define TSQ_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/macros.h"

namespace tsq {

/// Identifier of a page within a PageFile. Page 0 is the file header; data
/// pages start at 1.
using PageId = uint64_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = 0;

/// Default page size: 4 KiB, the classic database page.
inline constexpr size_t kDefaultPageSize = 4096;

/// A page-sized byte buffer. Pages are dumb byte containers; interpretation
/// belongs to the layer that owns them (R-tree nodes and meta pages).
class Page {
 public:
  Page() = default;

  /// Allocates a zeroed buffer of `size` bytes.
  explicit Page(size_t size) : bytes_(size, 0) {}

  /// Size in bytes.
  size_t size() const { return bytes_.size(); }

  /// Raw byte access.
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  /// Zeroes the whole page.
  void Clear() { std::memset(bytes_.data(), 0, bytes_.size()); }

  /// Reads/writes a u64 at byte offset `off` (little-endian, unaligned ok).
  uint64_t ReadU64(size_t off) const {
    TSQ_DCHECK(off + 8 <= bytes_.size());
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(bytes_[off + i]) << (8 * i);
    }
    return v;
  }
  void WriteU64(size_t off, uint64_t v) {
    TSQ_DCHECK(off + 8 <= bytes_.size());
    for (size_t i = 0; i < 8; ++i) {
      bytes_[off + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace tsq

#endif  // TSQ_STORAGE_PAGE_H_
