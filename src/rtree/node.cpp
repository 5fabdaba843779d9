// Copyright (c) 2026 The tsq Authors.

#include "rtree/node.h"

#include <bit>
#include <cstring>

namespace tsq {
namespace rtree {

namespace {

constexpr uint32_t kNodeMagic = 0x4E515354;  // "TSQN"
constexpr size_t kNodeHeaderBytes = 16;

inline size_t EntryBytes(size_t dims) { return 16 * dims + 8; }

inline void PutU32At(Page* page, size_t off, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    page->data()[off + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint32_t GetU32At(const Page& page, size_t off) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(page.data()[off + i]) << (8 * i);
  }
  return v;
}

inline void PutF64At(Page* page, size_t off, double d) {
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  for (size_t i = 0; i < 8; ++i) {
    page->data()[off + i] = static_cast<uint8_t>(bits >> (8 * i));
  }
}

inline void PutU64At(Page* page, size_t off, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    page->data()[off + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// The decode hot path: on a little-endian host the page's byte order is
// the native one, so one memcpy (a single load) reads the value.
inline uint64_t GetU64At(const Page& page, size_t off) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, page.data() + off, sizeof(v));
  } else {
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(page.data()[off + i]) << (8 * i);
    }
  }
  return v;
}

inline double GetF64At(const Page& page, size_t off) {
  return std::bit_cast<double>(GetU64At(page, off));
}

// Validates the node header: magic, and a count the page can hold.
Status ParseHeader(const Page& page, size_t dims, uint32_t* level,
                   uint32_t* count) {
  if (page.size() < kNodeHeaderBytes) {
    return Status::Corruption("page too small for a node header");
  }
  if (GetU32At(page, 0) != kNodeMagic) {
    return Status::Corruption("bad node magic");
  }
  *level = GetU32At(page, 4);
  *count = GetU32At(page, 8);
  const size_t capacity = NodeCapacity(page.size(), dims);
  if (*count > capacity) {
    return Status::Corruption("node count " + std::to_string(*count) +
                              " exceeds capacity " + std::to_string(capacity));
  }
  return Status::OK();
}

// Reads entry `index` into `e`, whose rect must already have `dims`
// dimensions (its coordinate storage is overwritten in place). Every
// interval must satisfy lo <= hi; the negated test also rejects NaN.
Status ParseEntry(const Page& page, size_t index, size_t dims, Entry* e) {
  const size_t off = kNodeHeaderBytes + index * EntryBytes(dims);
  for (size_t d = 0; d < dims; ++d) {
    const double lo = GetF64At(page, off + 8 * d);
    const double hi = GetF64At(page, off + 8 * (dims + d));
    if (!(lo <= hi)) {
      return Status::Corruption("inverted or NaN MBR interval on disk");
    }
    e->rect.SetDim(d, lo, hi);
  }
  e->id = GetU64At(page, off + 16 * dims);
  return Status::OK();
}

}  // namespace

spatial::Rect Node::BoundingRect() const {
  TSQ_CHECK_MSG(!entries.empty(), "BoundingRect of an empty node");
  spatial::Rect mbr = entries[0].rect;
  for (size_t i = 1; i < entries.size(); ++i) {
    mbr.ExpandToInclude(entries[i].rect);
  }
  return mbr;
}

void NodeBuffer::BoundingRectInto(spatial::Rect* out) const {
  TSQ_CHECK_MSG(size_ != 0, "BoundingRect of an empty node");
  *out = slots_[0].rect;
  for (size_t i = 1; i < size_; ++i) out->ExpandToInclude(slots_[i].rect);
}

size_t NodeCapacity(size_t page_size, size_t dims) {
  TSQ_CHECK(dims >= 1);
  if (page_size <= kNodeHeaderBytes) return 0;
  return (page_size - kNodeHeaderBytes) / EntryBytes(dims);
}

Status SerializeNode(const Node& node, size_t dims, Page* page) {
  TSQ_CHECK(page != nullptr);
  const size_t capacity = NodeCapacity(page->size(), dims);
  if (node.entries.size() > capacity) {
    return Status::InvalidArgument(
        "node with " + std::to_string(node.entries.size()) +
        " entries exceeds capacity " + std::to_string(capacity));
  }
  page->Clear();
  PutU32At(page, 0, kNodeMagic);
  PutU32At(page, 4, node.level);
  PutU32At(page, 8, static_cast<uint32_t>(node.entries.size()));
  PutU32At(page, 12, 0);

  size_t off = kNodeHeaderBytes;
  for (const Entry& e : node.entries) {
    if (e.rect.dims() != dims) {
      return Status::InvalidArgument("entry dims " +
                                     std::to_string(e.rect.dims()) +
                                     " != tree dims " + std::to_string(dims));
    }
    for (size_t d = 0; d < dims; ++d) {
      PutF64At(page, off, e.rect.lo(d));
      off += 8;
    }
    for (size_t d = 0; d < dims; ++d) {
      PutF64At(page, off, e.rect.hi(d));
      off += 8;
    }
    PutU64At(page, off, e.id);
    off += 8;
  }
  return Status::OK();
}

Status DeserializeNode(const Page& page, size_t dims, Node* node) {
  TSQ_CHECK(node != nullptr);
  uint32_t count = 0;
  TSQ_RETURN_IF_ERROR(ParseHeader(page, dims, &node->level, &count));
  node->entries.assign(count, Entry{spatial::Rect::Empty(dims), 0});
  for (uint32_t i = 0; i < count; ++i) {
    TSQ_RETURN_IF_ERROR(ParseEntry(page, i, dims, &node->entries[i]));
  }
  return Status::OK();
}

Status DecodeNode(const Page& page, size_t dims, NodeBuffer* out) {
  TSQ_CHECK(out != nullptr);
  out->size_ = 0;  // a failed decode leaves nothing readable
  uint32_t level = 0;
  uint32_t count = 0;
  TSQ_RETURN_IF_ERROR(ParseHeader(page, dims, &level, &count));
  if (out->dims_ != dims) {
    out->slots_.clear();
    out->dims_ = dims;
  }
  out->slots_.reserve(NodeCapacity(page.size(), dims));
  while (out->slots_.size() < count) {
    out->slots_.push_back(Entry{spatial::Rect::Empty(dims), 0});
  }
  for (uint32_t i = 0; i < count; ++i) {
    TSQ_RETURN_IF_ERROR(ParseEntry(page, i, dims, &out->slots_[i]));
  }
  out->level_ = level;
  out->size_ = count;
  return Status::OK();
}

}  // namespace rtree
}  // namespace tsq
