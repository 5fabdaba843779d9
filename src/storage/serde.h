// Copyright (c) 2026 The tsq Authors.
//
// Binary record encoding for the storage layer: explicit little-endian
// fixed-width codecs (stable across platforms) plus CRC32 integrity
// checking. Decoders never trust their input bytes — since the tsqd wire
// protocol (src/server/protocol.h) reuses these codecs, input is not just
// "our own files" but raw network bytes from untrusted clients. Every
// read is bounds-checked against the remaining span (with overflow-proof
// length comparisons, so a hostile 2^61 element count cannot wrap the
// check) and returns Status::Corruption on malformed input; a zero-length
// vector or string decodes to an empty value, not an error.
//
// Write contract (v2). These codecs are what makes the segmented
// relation's crash story work: every record a segment file holds is
// framed as
//     u32 magic | u32 payload_crc | u64 payload_len | payload
// and appended with a single buffered write that is flushed before the
// record's id is published. Because the frame is length-prefixed and
// checksummed, recovery can walk a segment from the front and classify
// the first damaged record precisely — a truncated header/payload or a
// checksum mismatch on the segment's final record is a torn append (the
// crash-mid-write signature; the tail is dropped and truncated away),
// while the same damage mid-file is reported as Corruption. Encoders are
// pure functions of their input, so two appends of the same logical
// record produce identical bytes on any thread — the foundation of the
// relation's byte-identical-at-any-concurrency guarantee.

#ifndef TSQ_STORAGE_SERDE_H_
#define TSQ_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dft/complex_vec.h"

namespace tsq {
namespace serde {

/// Byte buffer used for encoding.
using Buffer = std::vector<uint8_t>;

/// Appends fixed-width little-endian values.
void PutU32(Buffer* buf, uint32_t v);
void PutU64(Buffer* buf, uint64_t v);
void PutDouble(Buffer* buf, double v);

/// Appends a length-prefixed (u32) byte string.
void PutString(Buffer* buf, const std::string& s);

/// Appends a length-prefixed (u64) vector of doubles.
void PutRealVec(Buffer* buf, const RealVec& v);

/// Appends a length-prefixed (u64) vector of complex doubles (re, im pairs).
void PutComplexVec(Buffer* buf, const ComplexVec& v);

/// Sequential decoder over a byte span. All Get* methods return
/// Status::Corruption when the remaining bytes are insufficient.
/// GetRealVec/GetComplexVec check the element count against the
/// remaining bytes before resizing, then copy the elements in bulk; every
/// bit pattern (-0.0, denormals, NaN payloads) decodes unchanged.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const Buffer& buf) : Reader(buf.data(), buf.size()) {}

  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetRealVec(RealVec* out);
  Status GetComplexVec(ComplexVec* out);

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t n);
  /// Copies n doubles the caller has already bounds-checked.
  void GetDoubles(double* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// CRC-32 (reflected polynomial 0xEDB88320, the zlib CRC) over a byte
/// span: the integrity check of every relation record and wire frame.
/// Computed eight bytes per step (slicing-by-8); the value is the same
/// as the byte-at-a-time definition's for every input, so files and
/// frames written by any version verify under any other.
uint32_t Crc32(const uint8_t* data, size_t size);
uint32_t Crc32(const Buffer& buf);

}  // namespace serde
}  // namespace tsq

#endif  // TSQ_STORAGE_SERDE_H_
