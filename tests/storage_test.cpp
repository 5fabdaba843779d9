// Copyright (c) 2026 The tsq Authors.
//
// Tests for the paged storage substrate: serde codecs and CRC, the page
// file (allocation, free list, persistence), the LRU buffer pool (hits,
// misses, eviction, pinning, write-back) and the segmented sequence
// relation (append/get/scan, reopen, torn-tail recovery, corruption
// detection, concurrent appenders).

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/relation.h"
#include "storage/serde.h"
#include "test_util.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::IndexDelta;
using testing::TempDir;

// ---------------------------------------------------------------------------
// serde
// ---------------------------------------------------------------------------

TEST(SerdeTest, FixedWidthRoundTrip) {
  serde::Buffer buf;
  serde::PutU32(&buf, 0xDEADBEEFu);
  serde::PutU64(&buf, 0x0123456789ABCDEFull);
  serde::PutDouble(&buf, -273.15);
  serde::Reader reader(buf);
  uint32_t a = 0;
  uint64_t b = 0;
  double c = 0;
  ASSERT_TRUE(reader.GetU32(&a).ok());
  ASSERT_TRUE(reader.GetU64(&b).ok());
  ASSERT_TRUE(reader.GetDouble(&c).ok());
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(c, -273.15);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SerdeTest, StringAndVectorRoundTrip) {
  serde::Buffer buf;
  serde::PutString(&buf, "hello tsq");
  serde::PutRealVec(&buf, {1.5, -2.5, 0.0});
  serde::PutComplexVec(&buf, {Complex(1, 2), Complex(-3, 4)});
  serde::Reader reader(buf);
  std::string s;
  RealVec rv;
  ComplexVec cv;
  ASSERT_TRUE(reader.GetString(&s).ok());
  ASSERT_TRUE(reader.GetRealVec(&rv).ok());
  ASSERT_TRUE(reader.GetComplexVec(&cv).ok());
  EXPECT_EQ(s, "hello tsq");
  EXPECT_EQ(rv, (RealVec{1.5, -2.5, 0.0}));
  ASSERT_EQ(cv.size(), 2u);
  EXPECT_EQ(cv[1], Complex(-3, 4));
}

TEST(SerdeTest, EmptyContainers) {
  serde::Buffer buf;
  serde::PutString(&buf, "");
  serde::PutRealVec(&buf, {});
  serde::Reader reader(buf);
  std::string s = "junk";
  RealVec rv = {9.0};
  ASSERT_TRUE(reader.GetString(&s).ok());
  ASSERT_TRUE(reader.GetRealVec(&rv).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(rv.empty());
}

TEST(SerdeTest, TruncatedInputYieldsCorruption) {
  serde::Buffer buf;
  serde::PutU64(&buf, 42);
  buf.pop_back();
  serde::Reader reader(buf);
  uint64_t v = 0;
  EXPECT_TRUE(reader.GetU64(&v).IsCorruption());
}

TEST(SerdeTest, TruncatedVectorYieldsCorruption) {
  serde::Buffer buf;
  serde::PutRealVec(&buf, {1.0, 2.0, 3.0});
  buf.erase(buf.end() - 4, buf.end());
  serde::Reader reader(buf);
  RealVec rv;
  EXPECT_TRUE(reader.GetRealVec(&rv).IsCorruption());
}

TEST(SerdeTest, OversizedLengthPrefixYieldsCorruption) {
  serde::Buffer buf;
  serde::PutU32(&buf, 1000);  // string length prefix with no payload
  serde::Reader reader(buf);
  std::string s;
  EXPECT_TRUE(reader.GetString(&s).IsCorruption());
}

TEST(SerdeTest, HostileVectorLengthCannotOverflowBoundsCheck) {
  // A claimed element count of 2^61 makes n * 8 wrap to 0 in u64; the
  // decoder must compare with a division instead and fail cleanly — the
  // tsqd server feeds these decoders raw network bytes.
  serde::Buffer buf;
  serde::PutU64(&buf, uint64_t{1} << 61);
  {
    serde::Reader reader(buf);
    RealVec rv;
    EXPECT_TRUE(reader.GetRealVec(&rv).IsCorruption());
  }
  // 2^60 * 16 wraps the same way for complex vectors.
  buf.clear();
  serde::PutU64(&buf, uint64_t{1} << 60);
  {
    serde::Reader reader(buf);
    ComplexVec cv;
    EXPECT_TRUE(reader.GetComplexVec(&cv).IsCorruption());
  }
}

TEST(SerdeTest, OversizedButNonWrappingVectorLengthIsCorruption) {
  serde::Buffer buf;
  serde::PutU64(&buf, 1000);  // claims 8000 payload bytes
  serde::PutDouble(&buf, 1.0);
  serde::Reader reader(buf);
  RealVec rv;
  EXPECT_TRUE(reader.GetRealVec(&rv).IsCorruption());
}

TEST(SerdeTest, ZeroLengthVectorsAndStringsDecodeEmpty) {
  serde::Buffer buf;
  serde::PutRealVec(&buf, {});
  serde::PutComplexVec(&buf, {});
  serde::PutString(&buf, "");
  serde::Reader reader(buf);
  RealVec rv{1.0};
  ComplexVec cv{Complex(1.0, 1.0)};
  std::string s = "stale";
  ASSERT_TRUE(reader.GetRealVec(&rv).ok());
  ASSERT_TRUE(reader.GetComplexVec(&cv).ok());
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_TRUE(rv.empty());
  EXPECT_TRUE(cv.empty());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SerdeTest, EmptyInputFailsEveryGetter) {
  serde::Reader reader(nullptr, 0);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0.0;
  RealVec rv;
  EXPECT_TRUE(reader.GetU32(&u32).IsCorruption());
  EXPECT_TRUE(reader.GetU64(&u64).IsCorruption());
  EXPECT_TRUE(reader.GetDouble(&d).IsCorruption());
  EXPECT_TRUE(reader.GetRealVec(&rv).IsCorruption());
}

/// One byte of the CRC-32 definition, a bit at a time: the independent
/// reference the table-driven Crc32 must equal.
uint32_t BitwiseCrc32Step(uint32_t crc, uint8_t byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc;
}

TEST(SerdeTest, Crc32KnownVectorAndSensitivity) {
  // The classic zlib check value.
  const std::string data = "123456789";
  EXPECT_EQ(serde::Crc32(reinterpret_cast<const uint8_t*>(data.data()),
                         data.size()),
            0xCBF43926u);
  serde::Buffer a = {1, 2, 3};
  serde::Buffer b = {1, 2, 4};
  EXPECT_NE(serde::Crc32(a), serde::Crc32(b));
  EXPECT_EQ(serde::Crc32(serde::Buffer{}), 0u);

  // Random bytes, every length 0..4200 from every start offset mod 8, so
  // every split between eight-byte steps and the byte tail, and every
  // alignment of the steps, is checked against the bitwise definition.
  constexpr size_t kMaxLength = 4200;
  Rng rng(2026);
  serde::Buffer bytes(kMaxLength + 8);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.NextU64());
  for (size_t start = 0; start < 8; ++start) {
    uint32_t state = 0xFFFFFFFFu;
    for (size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(serde::Crc32(bytes.data() + start, length), ~state)
          << "start " << start << ", length " << length;
      state = BitwiseCrc32Step(state, bytes[start + length]);
    }
  }
}

TEST(SerdeTest, VectorDecodeKeepsEveryBitPattern) {
  const uint64_t patterns[] = {
      0x8000000000000000ull,  // -0.0
      0x0000000000000001ull,  // smallest denormal
      0x800FFFFFFFFFFFFFull,  // largest negative denormal
      0x7FF8000000000000ull,  // quiet NaN
      0xFFF80000DEADBEEFull,  // negative quiet NaN with a payload
      0x7FF0000000000001ull,  // signaling NaN
      0x7FF0000000000000ull,  // +inf
      0x3FF0000000000001ull,  // 1 + ulp
  };
  RealVec real;
  ComplexVec complex;
  for (size_t i = 0; i < std::size(patterns); ++i) {
    real.push_back(std::bit_cast<double>(patterns[i]));
    complex.emplace_back(
        std::bit_cast<double>(patterns[i]),
        std::bit_cast<double>(patterns[std::size(patterns) - 1 - i]));
  }
  serde::Buffer buf;
  serde::PutString(&buf, "odd");  // leaves the vectors unaligned
  serde::PutRealVec(&buf, real);
  serde::PutComplexVec(&buf, complex);

  serde::Reader reader(buf);
  std::string name;
  RealVec real_back;
  ComplexVec complex_back;
  ASSERT_TRUE(reader.GetString(&name).ok());
  ASSERT_TRUE(reader.GetRealVec(&real_back).ok());
  ASSERT_TRUE(reader.GetComplexVec(&complex_back).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_EQ(real_back.size(), real.size());
  ASSERT_EQ(complex_back.size(), complex.size());
  for (size_t i = 0; i < real.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(real_back[i]),
              std::bit_cast<uint64_t>(real[i])) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(complex_back[i].real()),
              std::bit_cast<uint64_t>(complex[i].real())) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(complex_back[i].imag()),
              std::bit_cast<uint64_t>(complex[i].imag())) << i;
  }
}

// ---------------------------------------------------------------------------
// Page / PageFile
// ---------------------------------------------------------------------------

TEST(PageTest, U64ReadWrite) {
  Page p(4096);
  p.WriteU64(100, 0xAABBCCDDEEFF0011ull);
  EXPECT_EQ(p.ReadU64(100), 0xAABBCCDDEEFF0011ull);
  p.Clear();
  EXPECT_EQ(p.ReadU64(100), 0u);
}

TEST(PageFileTest, CreateAllocateWriteRead) {
  TempDir dir;
  auto pf = PageFile::Create(dir.file("pages"), 4096);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  auto id1 = (*pf)->Allocate();
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, 1u);

  Page page(4096);
  page.WriteU64(0, 777);
  ASSERT_TRUE((*pf)->Write(*id1, page).ok());
  Page back;
  ASSERT_TRUE((*pf)->Read(*id1, &back).ok());
  EXPECT_EQ(back.ReadU64(0), 777u);
  EXPECT_EQ((*pf)->num_pages(), 1u);
}

TEST(PageFileTest, RejectsBadPageSize) {
  TempDir dir;
  EXPECT_TRUE(PageFile::Create(dir.file("p"), 100).status().IsInvalidArgument());
  EXPECT_TRUE(
      PageFile::Create(dir.file("p"), 4000).status().IsInvalidArgument());
}

TEST(PageFileTest, RejectsInvalidPageIds) {
  TempDir dir;
  auto pf = PageFile::Create(dir.file("pages"));
  ASSERT_TRUE(pf.ok());
  Page page(kDefaultPageSize);
  EXPECT_TRUE((*pf)->Read(0, &page).IsInvalidArgument());      // header page
  EXPECT_TRUE((*pf)->Read(99, &page).IsInvalidArgument());     // unallocated
  EXPECT_TRUE((*pf)->Write(5, page).IsInvalidArgument());
  EXPECT_TRUE((*pf)->Free(0).IsInvalidArgument());
}

TEST(PageFileTest, FreeListRecyclesPages) {
  TempDir dir;
  auto pf = PageFile::Create(dir.file("pages"));
  ASSERT_TRUE(pf.ok());
  PageId a = (*pf)->Allocate().value();
  PageId b = (*pf)->Allocate().value();
  PageId c = (*pf)->Allocate().value();
  EXPECT_EQ((*pf)->num_pages(), 3u);
  ASSERT_TRUE((*pf)->Free(b).ok());
  ASSERT_TRUE((*pf)->Free(a).ok());
  // LIFO recycling: a then b come back before any new page is grown.
  EXPECT_EQ((*pf)->Allocate().value(), a);
  EXPECT_EQ((*pf)->Allocate().value(), b);
  EXPECT_EQ((*pf)->Allocate().value(), c + 1);
  EXPECT_EQ((*pf)->num_pages(), 4u);
}

TEST(PageFileTest, PersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.file("pages");
  PageId id = 0;
  {
    auto pf = PageFile::Create(path, 2048);
    ASSERT_TRUE(pf.ok());
    id = (*pf)->Allocate().value();
    Page page(2048);
    page.WriteU64(8, 123456789ull);
    ASSERT_TRUE((*pf)->Write(id, page).ok());
    ASSERT_TRUE((*pf)->Sync().ok());
  }
  auto reopened = PageFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_size(), 2048u);
  EXPECT_EQ((*reopened)->num_pages(), 1u);
  Page back;
  ASSERT_TRUE((*reopened)->Read(id, &back).ok());
  EXPECT_EQ(back.ReadU64(8), 123456789ull);
}

TEST(PageFileTest, OpenRejectsGarbageFile) {
  TempDir dir;
  const std::string path = dir.file("junk");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a page file at all, definitely not 32 bytes ok", f);
  std::fclose(f);
  EXPECT_TRUE(PageFile::Open(path).status().IsCorruption());
}

TEST(PageFileTest, OpenMissingFileIsIOError) {
  EXPECT_TRUE(PageFile::Open("/nonexistent/dir/pages").status().IsIOError());
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pf = PageFile::Create(dir_.file("pages"));
    ASSERT_TRUE(pf.ok());
    file_ = std::move(*pf);
  }
  TempDir dir_;
  std::unique_ptr<PageFile> file_;
};

TEST_F(BufferPoolTest, NewFetchRoundTrip) {
  BufferPool pool(file_.get(), 4);
  const IndexDelta counted;
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  const PageId id = h->id();
  h->page()->WriteU64(0, 42);
  h->MarkDirty();
  h->Release();
  auto h2 = pool.Fetch(id);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2->page()->ReadU64(0), 42u);
  EXPECT_EQ(counted().hits, 1u);  // still cached
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(file_.get(), 2);
  const IndexDelta counted;
  PageId first = 0;
  {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    first = h->id();
    h->page()->WriteU64(16, 99);
    h->MarkDirty();
  }
  // Fill the pool so `first` is evicted.
  for (int i = 0; i < 3; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
  }
  EXPECT_GT(counted().evictions, 0u);
  auto back = pool.Fetch(first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->page()->ReadU64(16), 99u);
  EXPECT_GT(counted().disk_reads, 0u);
}

TEST_F(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  BufferPool pool(file_.get(), 2);
  auto a = pool.New();
  auto b = pool.New();
  ASSERT_TRUE(a.ok() && b.ok());
  // Both frames pinned: a third page must fail.
  auto c = pool.New();
  EXPECT_TRUE(c.status().IsFailedPrecondition());
  a->Release();
  auto d = pool.New();  // now one frame is evictable
  EXPECT_TRUE(d.ok());
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(file_.get(), 2);
  PageId a = pool.New().value().id();
  PageId b = pool.New().value().id();
  // Touch a so b becomes the LRU victim.
  pool.Fetch(a).value();
  pool.New().value();  // evicts b
  const IndexDelta counted;
  pool.Fetch(a).value();
  EXPECT_EQ(counted().hits, 1u);
  pool.Fetch(b).value();
  EXPECT_EQ(counted().misses, 1u);
}

TEST_F(BufferPoolTest, FlushAllPersistsWithoutEviction) {
  BufferPool pool(file_.get(), 4);
  auto h = pool.New();
  ASSERT_TRUE(h.ok());
  const PageId id = h->id();
  h->page()->WriteU64(0, 7);
  h->MarkDirty();
  h->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  // Read through the file directly: the bytes must be there.
  Page raw;
  ASSERT_TRUE(file_->Read(id, &raw).ok());
  EXPECT_EQ(raw.ReadU64(0), 7u);
}

TEST_F(BufferPoolTest, OneClockKeepsTheLastCapacityPages) {
  // One clock over all 64 frames: pages that are never re-referenced are
  // evicted in arrival order, so after 128 of them exactly the last 64
  // are cached — the single-list LRU result the paper's disk-access counts
  // assume. A pool partitioned into per-page-id sub-clocks keeps a
  // hash-dependent subset instead.
  BufferPool pool(file_.get(), 64);
  std::vector<PageId> ids;
  for (int i = 0; i < 128; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    ids.push_back(h->id());
  }
  const IndexDelta counted;
  for (size_t i = 64; i < 128; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  EXPECT_EQ(counted().hits, 64u);
  EXPECT_EQ(counted().misses, 0u);
  for (size_t i = 0; i < 64; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  EXPECT_EQ(counted().hits, 64u);
  EXPECT_EQ(counted().misses, 64u);
}

TEST_F(BufferPoolTest, ExhaustionWaitsForTheLastFrame) {
  // With 15 of 16 frames pinned, the one unpinned frame serves any number
  // of pages; exhaustion is reported only once every frame is pinned.
  BufferPool pool(file_.get(), 16);
  const IndexDelta counted;
  std::vector<PageHandle> pins;
  for (int i = 0; i < 15; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok()) << "pin " << i << ": " << h.status().ToString();
    pins.push_back(std::move(*h));
  }
  PageId last = kInvalidPageId;
  for (int i = 0; i < 32; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok()) << "page " << i << ": " << h.status().ToString();
    h->page()->WriteU64(0, h->id());
    h->MarkDirty();
    last = h->id();
  }
  // The first of the 32 took the free frame; each later one evicted (and
  // wrote back) its predecessor from that same frame.
  EXPECT_EQ(counted().evictions, 31u);
  EXPECT_EQ(counted().disk_writes, 31u);
  const uint64_t hits_before = counted().hits;
  ASSERT_TRUE(pool.Fetch(last).ok());
  EXPECT_EQ(counted().hits, hits_before + 1);

  auto sixteenth = pool.New();
  ASSERT_TRUE(sixteenth.ok()) << sixteenth.status().ToString();
  EXPECT_TRUE(pool.New().status().IsFailedPrecondition());
  // The pinned pages kept their frames throughout.
  for (const PageHandle& pin : pins) {
    const uint64_t hits = counted().hits;
    ASSERT_TRUE(pool.Fetch(pin.id()).ok());
    EXPECT_EQ(counted().hits, hits + 1) << "page " << pin.id();
  }
}

TEST_F(BufferPoolTest, PinnedPageSurvivesEvictionPressure) {
  // Regression: a pinned page must never be evicted (or have its frame
  // reused) while other pages thrash the remaining frames.
  BufferPool pool(file_.get(), 4);
  const IndexDelta counted;
  const PageId victim = pool.New().value().id();
  std::vector<PageId> hammer;
  for (int i = 0; i < 8; ++i) hammer.push_back(pool.New().value().id());

  auto pinned = pool.Fetch(victim);
  ASSERT_TRUE(pinned.ok());
  pinned->page()->WriteU64(24, 0xFEEDFACEull);
  pinned->MarkDirty();

  // Cycle eight pages through the three unpinned frames.
  for (int round = 0; round < 8; ++round) {
    for (const PageId id : hammer) {
      auto h = pool.Fetch(id);
      ASSERT_TRUE(h.ok()) << "round " << round << " page " << id;
    }
  }
  EXPECT_GT(counted().evictions, 0u);

  // The pinned frame is untouched and still cached.
  EXPECT_EQ(pinned->page()->ReadU64(24), 0xFEEDFACEull);
  pinned->Release();
  const uint64_t hits_before = counted().hits;
  ASSERT_TRUE(pool.Fetch(victim).ok());
  EXPECT_EQ(counted().hits, hits_before + 1)
      << "pinned page fell out of cache";
}

TEST_F(BufferPoolTest, FlushAllWritesEveryDirtyFrameOnce) {
  // Twelve dirty pages through eight frames: the first four were written
  // back at eviction, so the flush writes exactly the eight resident ones.
  BufferPool pool(file_.get(), 8);
  const IndexDelta counted;
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    auto h = pool.New();
    ASSERT_TRUE(h.ok());
    h->page()->WriteU64(0, 1000 + h->id());
    h->MarkDirty();
    ids.push_back(h->id());
  }
  const uint64_t writes_before = counted().disk_writes;
  EXPECT_EQ(writes_before, 4u);
  ASSERT_TRUE(pool.FlushAll().ok());
  // Every resident dirty frame was written exactly once...
  EXPECT_EQ(counted().disk_writes, writes_before + 8);
  // ...and every page — flushed or evicted earlier — is on disk.
  for (const PageId id : ids) {
    Page raw;
    ASSERT_TRUE(file_->Read(id, &raw).ok());
    EXPECT_EQ(raw.ReadU64(0), 1000 + id) << "page " << id;
  }
  // A second flush finds nothing dirty.
  const uint64_t writes_after = counted().disk_writes;
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(counted().disk_writes, writes_after);
}

TEST_F(BufferPoolTest, StatsCountEveryAccessExactly) {
  // Eight frames, 16 sequentially allocated pages: the clock evicts
  // never-re-referenced pages in arrival order, so the last eight are
  // cached and the first eight are on disk.
  BufferPool pool(file_.get(), 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(pool.New().value().id());
  const IndexDelta counted;

  for (size_t i = 8; i < 16; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());

  const obs::IndexCounters stats = counted();
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.disk_reads, 8u);
  // Refetching the evicted pages displaces exactly as many frames.
  EXPECT_EQ(stats.evictions, 8u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandles) {
  BufferPool pool(file_.get(), 2);
  auto a = pool.New();
  ASSERT_TRUE(a.ok());
  PageHandle h = std::move(*a);
  EXPECT_TRUE(h.valid());
  PageHandle h2;
  h2 = std::move(h);
  EXPECT_TRUE(h2.valid());
  EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move): asserting move-out state
  h2.Release();
  EXPECT_FALSE(h2.valid());
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

TEST(RelationTest, AppendGetRoundTrip) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok());
  const RealVec values = {1.0, 2.0, 3.0};
  const ComplexVec spectrum = {Complex(6, 0), Complex(-1, 1), Complex(-1, -1)};
  auto id = (*rel)->Append("IBM", values, spectrum);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  auto rec = (*rel)->Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->name, "IBM");
  EXPECT_EQ(rec->values, values);
  EXPECT_EQ(rec->dft, spectrum);
  EXPECT_EQ((*rel)->size(), 1u);
}

TEST(RelationTest, DenseIdsAndScanOrder) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 10; ++i) {
    auto id = (*rel)->Append("S" + std::to_string(i),
                             {static_cast<double>(i)}, {Complex(i, 0)});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<SeriesId>(i));
  }
  std::vector<SeriesId> seen;
  ASSERT_TRUE((*rel)
                  ->Scan([&seen](const SeriesRecord& rec) {
                    seen.push_back(rec.id);
                    return true;
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST(RelationTest, ScanEarlyStop) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*rel)->Append("x", {1.0}, {Complex(1, 0)}).ok());
  }
  int count = 0;
  ASSERT_TRUE((*rel)
                  ->Scan([&count](const SeriesRecord&) {
                    ++count;
                    return count < 3;
                  })
                  .ok());
  EXPECT_EQ(count, 3);
}

TEST(RelationTest, GetMissingIdIsNotFound) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE((*rel)->Get(0).status().IsNotFound());
}

TEST(RelationTest, ReopenRebuildsDirectory) {
  TempDir dir;
  const std::string path = dir.file("rel");
  {
    auto rel = Relation::Create(path);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*rel)->Append("A", {1, 2}, {Complex(3, 0), Complex(0, 0)}).ok());
    ASSERT_TRUE((*rel)->Append("B", {4, 5, 6}, {Complex(15, 0)}).ok());
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  auto rel = Relation::Open(path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ((*rel)->size(), 2u);
  auto rec = (*rel)->Get(1);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->name, "B");
  EXPECT_EQ(rec->values, (RealVec{4, 5, 6}));
  // Appending after reopen keeps ids dense.
  EXPECT_EQ((*rel)->Append("C", {7}, {Complex(7, 0)}).value(), 2u);
}

/// Flips one byte of `path` at `offset` (negative = from the end).
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET), 0);
  const long pos = std::ftell(f);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, pos, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

/// Truncates `path` by `bytes` (must leave at least one byte of the last
/// record behind for a mid-record tear).
void TruncateBy(const std::string& path, uint64_t bytes) {
  const uint64_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, bytes);
  std::filesystem::resize_file(path, size - bytes);
}

TEST(RelationTest, DetectsCorruptedPayloadMidFile) {
  TempDir dir;
  const std::string path = dir.file("rel");
  {
    auto rel = Relation::Create(path);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*rel)->Append("A", {1.0, 2.0, 3.0, 4.0}, {Complex(1, 1)}).ok());
    ASSERT_TRUE((*rel)->Append("B", {5.0, 6.0, 7.0, 8.0}, {Complex(2, 2)}).ok());
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  // Flip one payload byte of the FIRST record: damage before the last
  // record is corruption, not a torn tail, and must fail the open.
  FlipByteAt(path + ".0", 40);
  EXPECT_TRUE(Relation::Open(path).status().IsCorruption());
}

TEST(RelationTest, DropsTornTailRecordOnOpen) {
  TempDir dir;
  const std::string path = dir.file("rel");
  {
    auto rel = Relation::Create(path);
    ASSERT_TRUE(rel.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*rel)
                      ->Append("S" + std::to_string(i),
                               {static_cast<double>(i), 1.0},
                               {Complex(i, 0)})
                      .ok());
    }
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  // Tear the last record mid-payload, as a crash between write and flush
  // would.
  TruncateBy(path + ".0", 5);
  const uint64_t torn_size = std::filesystem::file_size(path + ".0");

  auto rel = Relation::Open(path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ((*rel)->size(), 2u);
  for (uint64_t id = 0; id < 2; ++id) {
    auto rec = (*rel)->Get(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->name, "S" + std::to_string(id));
  }
  EXPECT_TRUE((*rel)->Get(2).status().IsNotFound());
  // The torn bytes were truncated away, and the freed id is reused.
  EXPECT_LT(std::filesystem::file_size(path + ".0"), torn_size);
  EXPECT_EQ((*rel)->Append("again", {9.0, 9.0}, {Complex(9, 0)}).value(), 2u);
  auto rec = (*rel)->Get(2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->name, "again");
}

TEST(RelationTest, DropsTailRecordWithBadChecksum) {
  TempDir dir;
  const std::string path = dir.file("rel");
  {
    auto rel = Relation::Create(path);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*rel)->Append("keep", {1.0, 2.0}, {Complex(1, 0)}).ok());
    ASSERT_TRUE((*rel)->Append("torn", {3.0, 4.0}, {Complex(2, 0)}).ok());
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  // Scribble inside the LAST record's payload: a checksum mismatch on the
  // segment's final record reads as a torn append and is dropped.
  FlipByteAt(path + ".0", -3);
  auto rel = Relation::Open(path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ((*rel)->size(), 1u);
  EXPECT_EQ((*rel)->Get(0).value().name, "keep");
}

TEST(RelationTest, MultiSegmentRecoveryKeepsDensePrefix) {
  TempDir dir;
  const std::string path = dir.file("rel");
  {
    auto rel = Relation::Create(path, /*num_segments=*/2);
    ASSERT_TRUE(rel.ok());
    // Segment 0 holds ids 0, 2, 4; segment 1 holds ids 1, 3.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*rel)
                      ->Append("S" + std::to_string(i),
                               {static_cast<double>(i)}, {Complex(i, 0)})
                      .ok());
    }
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  // Tear id 3 (tail of segment 1). Id 4 is fully written in segment 0 but
  // must be dropped too — recovery keeps the largest dense id prefix.
  TruncateBy(path + ".1", 4);

  auto rel = Relation::Open(path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ((*rel)->num_segments(), 2u);
  EXPECT_EQ((*rel)->size(), 3u);
  std::vector<SeriesId> seen;
  ASSERT_TRUE((*rel)
                  ->Scan([&seen](const SeriesRecord& rec) {
                    seen.push_back(rec.id);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<SeriesId>{0, 1, 2}));
  // New appends refill ids 3 and 4, and a further reopen stays clean.
  EXPECT_EQ((*rel)->Append("N3", {3.5}, {Complex(3, 0)}).value(), 3u);
  EXPECT_EQ((*rel)->Append("N4", {4.5}, {Complex(4, 0)}).value(), 4u);
  ASSERT_TRUE((*rel)->Flush().ok());
  rel->reset();
  auto reopened = Relation::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 5u);
  EXPECT_EQ((*reopened)->Get(3).value().name, "N3");
  EXPECT_EQ((*reopened)->Get(4).value().name, "N4");
}

TEST(RelationTest, SegmentFilesAreDeterministicAndIdOrdered) {
  // A record's segment is id % N and records sit in id order within a
  // segment, so the file bytes are a pure function of the record
  // sequence.
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"), /*num_segments=*/3);
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE((*rel)
                    ->Append("S" + std::to_string(i),
                             {static_cast<double>(i)}, {Complex(i, 0)})
                    .ok());
  }
  for (size_t s = 0; s < 3; ++s) {
    std::vector<SeriesId> ids;
    ASSERT_TRUE((*rel)
                    ->ScanSegment(s, /*limit_id=*/100,
                                  [&ids](const SeriesRecord& rec) {
                                    ids.push_back(rec.id);
                                    return true;
                                  })
                    .ok());
    std::vector<SeriesId> expected;
    for (SeriesId id = s; id < 7; id += 3) expected.push_back(id);
    EXPECT_EQ(ids, expected) << "segment " << s;
  }
}

TEST(RelationTest, ConcurrentAppendersYieldDenseIdsAndReadableTail) {
  // Many free-running appenders against one relation: ids stay dense, the
  // watermark only exposes fully written records, and a racing reader
  // chases the tail with lock-free Gets. (The CI TSan job runs this.)
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"), /*num_segments=*/4);
  ASSERT_TRUE(rel.ok());
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 40;
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rel, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const double v = static_cast<double>(t * kPerThread + i);
        ASSERT_TRUE(
            (*rel)->Append("w", {v}, {Complex(v, 0)}).ok());
      }
    });
  }
  std::thread reader([&rel] {
    uint64_t seen = 0;
    while (seen < kThreads * kPerThread) {
      const uint64_t size = (*rel)->size();
      for (; seen < size; ++seen) {
        auto rec = (*rel)->Get(seen);
        ASSERT_TRUE(rec.ok()) << rec.status().ToString();
        ASSERT_EQ(rec->id, seen);
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();
  EXPECT_EQ((*rel)->size(), kThreads * kPerThread);
  // Every id readable, every segment id-ordered.
  for (uint64_t id = 0; id < kThreads * kPerThread; ++id) {
    ASSERT_TRUE((*rel)->Get(id).ok());
  }
}

TEST(RelationTest, ResetStatsRacesScannersSafely) {
  // The v2 reset stores each counter individually (relaxed atomics), so
  // resetting while scanners bump the counters is race-free.
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*rel)->Append("x", {1.0}, {Complex(1, 0)}).ok());
  }
  std::thread scanner([&rel] {
    for (int rep = 0; rep < 50; ++rep) {
      ASSERT_TRUE((*rel)->Scan([](const SeriesRecord&) { return true; }).ok());
    }
  });
  std::thread resetter([&rel] {
    for (int rep = 0; rep < 200; ++rep) (*rel)->ResetStats();
  });
  scanner.join();
  resetter.join();
  (*rel)->ResetStats();
  EXPECT_EQ((*rel)->stats().records_read.load(), 0u);
}

TEST(RelationTest, StatsCountReadsAndWrites) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE((*rel)->Append("A", {1.0}, {Complex(1, 0)}).ok());
  EXPECT_GT((*rel)->stats().bytes_written, 0u);
  (*rel)->ResetStats();
  ASSERT_TRUE((*rel)->Get(0).ok());
  EXPECT_EQ((*rel)->stats().records_read, 1u);
  EXPECT_GT((*rel)->stats().bytes_read, 0u);
}

/// Appends `count` records of `length` random samples (and a random
/// spectrum of the same length) named by `name(i)`; returns them in id
/// order.
std::vector<SeriesRecord> AppendRandomRecords(
    Relation* rel, size_t count, size_t length, uint64_t seed,
    const std::function<std::string(size_t)>& name) {
  Rng rng(seed);
  std::vector<SeriesRecord> out;
  for (size_t i = 0; i < count; ++i) {
    SeriesRecord rec;
    rec.name = name(i);
    rec.values = testing::RandomRealVec(&rng, length);
    rec.dft = testing::RandomComplexVec(&rng, length);
    auto id = rel->Append(rec.name, rec.values, rec.dft);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    rec.id = id.ok() ? *id : kInvalidSeriesId;
    out.push_back(std::move(rec));
  }
  return out;
}

void ExpectSameRecord(const SeriesRecord& got, const SeriesRecord& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.dft, want.dft);
}

TEST(RelationTest, ReadsBackRecordsLongerThanTheReadSize) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"), 2);
  ASSERT_TRUE(rel.ok());
  // Many 1-character names, then a 300-character one: a thread that has
  // just read a short record reads the long one with a second pread.
  std::vector<SeriesRecord> want = AppendRandomRecords(
      rel->get(), 40, 8, 1, [](size_t i) {
        return i == 33 ? std::string(300, 'L') : std::string(1, 'a');
      });
  ASSERT_TRUE((*rel)->Flush().ok());
  for (int pass = 0; pass < 2; ++pass) {
    for (const SeriesRecord& w : want) {
      auto got = (*rel)->Get(w.id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameRecord(*got, w);
    }
  }
  size_t scanned = 0;
  ASSERT_TRUE((*rel)
                  ->Scan([&](const SeriesRecord& got) {
                    ExpectSameRecord(got, want[scanned++]);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(scanned, want.size());

  // Series of length 16 and 1,024 (about 400 B and 24 KiB records) read
  // alternately on one thread, and each from a fresh thread: every long
  // read follows a short one.
  auto small = Relation::Create(dir.file("small"));
  auto large = Relation::Create(dir.file("large"));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  auto name = [](size_t i) { return "S" + std::to_string(i); };
  const std::vector<SeriesRecord> want_small =
      AppendRandomRecords(small->get(), 6, 16, 2, name);
  const std::vector<SeriesRecord> want_large =
      AppendRandomRecords(large->get(), 6, 1024, 3, name);
  auto read_both = [&] {
    for (size_t i = 0; i < 6; ++i) {
      auto s = (*small)->Get(i);
      auto l = (*large)->Get(i);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      ASSERT_TRUE(l.ok()) << l.status().ToString();
      ExpectSameRecord(*s, want_small[i]);
      ExpectSameRecord(*l, want_large[i]);
    }
  };
  read_both();
  std::thread fresh(read_both);
  fresh.join();
}

TEST(RelationTest, PayloadDamageAfterOpenFailsEveryRead) {
  TempDir dir;
  const std::string path = dir.file("rel");
  std::vector<SeriesRecord> want;
  {
    auto rel = Relation::Create(path);
    ASSERT_TRUE(rel.ok());
    want = AppendRandomRecords(rel->get(), 3, 4, 4,
                               [](size_t) { return std::string("n"); });
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  auto rel = Relation::Open(path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  const uint64_t record_bytes = std::filesystem::file_size(path + ".0") / 3;
  // The middle record's last payload byte, flipped under the open
  // relation: Open verified it, every later read must verify it again.
  FlipByteAt(path + ".0", static_cast<long>(2 * record_bytes - 1));
  EXPECT_TRUE((*rel)->Get(1).status().IsCorruption());
  ExpectSameRecord((*rel)->Get(0).value(), want[0]);
  ExpectSameRecord((*rel)->Get(2).value(), want[2]);
  size_t visited = 0;
  const Status scan = (*rel)->Scan([&](const SeriesRecord&) {
    ++visited;
    return true;
  });
  EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
  EXPECT_EQ(visited, 1u);
}

/// Peak resident set of this process so far, in KiB.
long PeakRssKib() {
  struct rusage usage {};
  EXPECT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss;
}

/// Overwrites the payload-length field of the record frame at `offset`.
void RewriteRecordLength(const std::string& path, uint64_t offset,
                         uint64_t length) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset + 8), SEEK_SET), 0);
  serde::Buffer field;
  serde::PutU64(&field, length);
  ASSERT_EQ(std::fwrite(field.data(), 1, field.size(), f), field.size());
  std::fclose(f);
}

TEST(RelationTest, HostileRecordLengthIsNotAllocated) {
  TempDir dir;
  const std::string path = dir.file("rel");
  {
    auto rel = Relation::Create(path);
    ASSERT_TRUE(rel.ok());
    AppendRandomRecords(rel->get(), 16, 128, 5,
                        [](size_t) { return std::string("h"); });
    ASSERT_TRUE((*rel)->Flush().ok());
  }
  auto rel = Relation::Open(path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  const uint64_t record_bytes = std::filesystem::file_size(path + ".0") / 16;
  // A 1 GiB claim on the first record (about 50 KiB of records follow,
  // more than the read size after any record of this suite, so the read
  // comes back full) and on the last (the read ends at the end of the
  // segment). At most 64 MiB of the peak may come from anything else.
  RewriteRecordLength(path + ".0", 0, 1ull << 30);
  RewriteRecordLength(path + ".0", 15 * record_bytes, 1ull << 30);
  const long before = PeakRssKib();
  EXPECT_TRUE((*rel)->Get(0).status().IsCorruption());
  EXPECT_TRUE((*rel)->Get(15).status().IsCorruption());
  EXPECT_LT(PeakRssKib() - before, 64L << 10);
  EXPECT_TRUE((*rel)->Get(3).ok());
}

/// Byte offset of the `index`-th record frame in a segment file, found by
/// walking the frames' length fields from the front.
uint64_t RecordOffset(const std::string& segment_path, size_t index) {
  std::FILE* f = std::fopen(segment_path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return 0;
  uint64_t offset = 0;
  for (size_t i = 0; i < index; ++i) {
    uint8_t field[8];
    EXPECT_EQ(std::fseek(f, static_cast<long>(offset + 8), SEEK_SET), 0);
    EXPECT_EQ(std::fread(field, 1, sizeof(field), f), sizeof(field));
    serde::Reader reader(field, sizeof(field));
    uint64_t payload_len = 0;
    EXPECT_TRUE(reader.GetU64(&payload_len).ok());
    offset += 16 + payload_len;
  }
  std::fclose(f);
  return offset;
}

TEST(RelationTest, RefineOfADamagedRecordFailsTheQuery) {
  TempDir dir;
  DatabaseOptions options;
  options.directory = dir.path();
  options.name = "damaged";
  auto db = Database::Create(options).value();
  const auto data = workload::MakeRandomWalkDataset(8, 64, 32);
  for (const TimeSeries& s : data) {
    ASSERT_TRUE(db->Insert(s.name(), s.values()).ok());
  }
  ASSERT_TRUE(db->BuildIndex().ok());
  ASSERT_TRUE(db->Flush().ok());

  // Record 9's last payload byte. Querying with series 9 itself makes
  // it a candidate of the range (distance 0) and the first record the
  // kNN refine fetches (lower bound 0), so both must fetch it.
  const SeriesId damaged = 9;
  const Relation& rel = *db->relation();
  const size_t segments = rel.num_segments();
  const std::string segment = rel.SegmentPath(damaged % segments);
  const uint64_t next = RecordOffset(segment, damaged / segments + 1);
  FlipByteAt(segment, static_cast<long>(next - 1));

  const RealVec& query = data[damaged].values();
  const auto range = testing::Range(db.get(), query, 1.0);
  EXPECT_TRUE(range.status().IsCorruption()) << range.status().ToString();
  const auto knn = testing::Knn(db.get(), query, 1);
  EXPECT_TRUE(knn.status().IsCorruption()) << knn.status().ToString();
  // A query whose refine never fetches record 9 still answers.
  EXPECT_TRUE(testing::Knn(db.get(), data[0].values(), 1).ok());
}

}  // namespace
}  // namespace tsq
