// Copyright (c) 2026 The tsq Authors.

#include "storage/serde.h"

#include <array>
#include <bit>
#include <cstring>

namespace tsq {
namespace serde {

namespace {

// Fixed-width little-endian primitives. On big-endian hosts the bytes are
// swapped explicitly, so files written on any platform read on any other.
template <typename T>
void PutFixed(Buffer* buf, T v) {
  static_assert(std::is_unsigned_v<T>);
  uint8_t bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  buf->insert(buf->end(), bytes, bytes + sizeof(T));
}

template <typename T>
T GetFixed(const uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void PutU32(Buffer* buf, uint32_t v) { PutFixed(buf, v); }
void PutU64(Buffer* buf, uint64_t v) { PutFixed(buf, v); }

void PutDouble(Buffer* buf, double v) {
  PutFixed(buf, std::bit_cast<uint64_t>(v));
}

void PutString(Buffer* buf, const std::string& s) {
  PutU32(buf, static_cast<uint32_t>(s.size()));
  buf->insert(buf->end(), s.begin(), s.end());
}

void PutRealVec(Buffer* buf, const RealVec& v) {
  PutU64(buf, v.size());
  for (double d : v) PutDouble(buf, d);
}

void PutComplexVec(Buffer* buf, const ComplexVec& v) {
  PutU64(buf, v.size());
  for (const Complex& c : v) {
    PutDouble(buf, c.real());
    PutDouble(buf, c.imag());
  }
}

Status Reader::Need(size_t n) {
  if (size_ - pos_ < n) {
    return Status::Corruption("record truncated: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(size_ - pos_));
  }
  return Status::OK();
}

Status Reader::GetU32(uint32_t* out) {
  TSQ_RETURN_IF_ERROR(Need(4));
  *out = GetFixed<uint32_t>(data_ + pos_);
  pos_ += 4;
  return Status::OK();
}

Status Reader::GetU64(uint64_t* out) {
  TSQ_RETURN_IF_ERROR(Need(8));
  *out = GetFixed<uint64_t>(data_ + pos_);
  pos_ += 8;
  return Status::OK();
}

Status Reader::GetDouble(double* out) {
  uint64_t bits = 0;
  TSQ_RETURN_IF_ERROR(GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::OK();
}

void Reader::GetDoubles(double* out, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    // The wire order is the host order: one bulk copy, bit for bit.
    if (n > 0) std::memcpy(out, data_ + pos_, n * sizeof(double));
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bits = GetFixed<uint64_t>(data_ + pos_ + 8 * i);
      out[i] = std::bit_cast<double>(bits);
    }
  }
  pos_ += n * sizeof(double);
}

Status Reader::GetString(std::string* out) {
  uint32_t len = 0;
  TSQ_RETURN_IF_ERROR(GetU32(&len));
  TSQ_RETURN_IF_ERROR(Need(len));
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status Reader::GetRealVec(RealVec* out) {
  uint64_t n = 0;
  TSQ_RETURN_IF_ERROR(GetU64(&n));
  // Divide instead of multiplying: an attacker-controlled n (the server
  // feeds this decoder raw network bytes) could overflow n * 8 into a
  // small value and sail past the bounds check into a huge resize.
  if (n > remaining() / 8) {
    return Status::Corruption("vector length " + std::to_string(n) +
                              " exceeds remaining " +
                              std::to_string(remaining()) + " bytes");
  }
  out->resize(n);
  GetDoubles(out->data(), n);
  return Status::OK();
}

Status Reader::GetComplexVec(ComplexVec* out) {
  uint64_t n = 0;
  TSQ_RETURN_IF_ERROR(GetU64(&n));
  if (n > remaining() / 16) {
    return Status::Corruption("complex vector length " + std::to_string(n) +
                              " exceeds remaining " +
                              std::to_string(remaining()) + " bytes");
  }
  out->resize(n);
  static_assert(sizeof(Complex) == 2 * sizeof(double),
                "std::complex<double> must be two packed doubles");
  // The array-oriented access rule for std::complex makes its storage
  // an array of (re, im) doubles, the order the encoder wrote them in.
  GetDoubles(reinterpret_cast<double*>(out->data()), 2 * n);
  return Status::OK();
}

namespace {

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320.
// kCrcTables[0] is the classic byte-at-a-time table; kCrcTables[k][b] is
// kCrcTables[0][b] advanced through k more zero bytes, so one step folds
// eight input bytes with eight independent lookups instead of eight
// dependent ones. Built at compile time.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  const CrcTables& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    // Little-endian loads regardless of the host: the first input byte
    // is the low byte of `lo`, as the byte-at-a-time loop consumes it.
    const uint32_t lo = GetFixed<uint32_t>(data) ^ crc;
    const uint32_t hi = GetFixed<uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const Buffer& buf) { return Crc32(buf.data(), buf.size()); }

}  // namespace serde
}  // namespace tsq
