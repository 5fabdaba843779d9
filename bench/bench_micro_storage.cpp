// Copyright (c) 2026 The tsq Authors.
//
// Micro-benchmarks (google-benchmark) for the storage substrate: page
// file I/O, buffer pool hit/miss paths, relation append/get/scan, and node
// (de)serialization — the constants behind every "disk access" the paper's
// experiments count.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "micro_main.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/relation.h"
#include "storage/serde.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

std::string TempPath(const char* tag) {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          (std::string("tsq_microstorage_") + tag + "_" +
           std::to_string(counter++)))
      .string();
}

void BM_PageFileWrite(benchmark::State& state) {
  const std::string path = TempPath("pfw");
  auto file = PageFile::Create(path).value();
  const PageId id = file->Allocate();
  Page page(kDefaultPageSize);
  uint64_t v = 0;
  for (auto _ : state) {
    page.WriteU64(0, ++v);
    benchmark::DoNotOptimize(file->Write(id, page).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kDefaultPageSize));
  file.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_PageFileWrite);

void BM_PageFileRead(benchmark::State& state) {
  const std::string path = TempPath("pfr");
  auto file = PageFile::Create(path).value();
  const PageId id = file->Allocate();
  Page page(kDefaultPageSize);
  TSQ_CHECK(file->Write(id, page).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(file->Read(id, &page).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kDefaultPageSize));
  file.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_PageFileRead);

/// Appends `count` zeroed pages to `file` and returns their ids: the
/// pages a pool cell then reads.
std::vector<PageId> AppendPages(PageFile* file, size_t count) {
  std::vector<PageId> ids;
  const Page page(file->page_size());
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(file->Allocate());
    TSQ_CHECK(file->Write(ids.back(), page).ok());
  }
  return ids;
}

void BM_BufferPoolHit(benchmark::State& state) {
  const std::string path = TempPath("bph");
  auto file = PageFile::Create(path).value();
  const PageId id = AppendPages(file.get(), 1)[0];
  {
    BufferPool pool(file.get(), 16);
    TSQ_CHECK(pool.Fetch(id).ok());  // cached from here on
    for (auto _ : state) {
      auto handle = pool.Fetch(id);
      benchmark::DoNotOptimize(handle->page());
    }
  }
  file.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  // Every fetch misses: the working set is twice the pool capacity.
  const std::string path = TempPath("bpm");
  auto file = PageFile::Create(path).value();
  const std::vector<PageId> ids = AppendPages(file.get(), 16);
  {
    BufferPool pool(file.get(), 8);
    size_t next = 0;
    for (auto _ : state) {
      auto handle = pool.Fetch(ids[next]);
      benchmark::DoNotOptimize(handle->page());
      next = (next + 1) % ids.size();
    }
  }
  file.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_BufferPoolMissEvict);

/// Closes `rel` and deletes its segment files (Create writes
/// <path>.0 .. <path>.N-1, never <path> itself).
void RemoveRelation(std::unique_ptr<Relation> rel) {
  std::vector<std::string> segments;
  for (size_t i = 0; i < rel->num_segments(); ++i) {
    segments.push_back(rel->SegmentPath(i));
  }
  rel.reset();
  for (const std::string& segment : segments) {
    std::filesystem::remove(segment);
  }
}

void BM_RelationAppend(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  RealVec values = workload::RandomWalkSeries(&rng, n, {});
  ComplexVec spectrum(n, Complex(1.0, -1.0));
  for (auto _ : state) {
    state.PauseTiming();
    const std::string path = TempPath("ra");
    auto rel = Relation::Create(path).value();
    state.ResumeTiming();
    for (int i = 0; i < 200; ++i) {
      benchmark::DoNotOptimize(rel->Append("S", values, spectrum).ok());
    }
    state.PauseTiming();
    RemoveRelation(std::move(rel));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RelationAppend)->Arg(128)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_RelationGet(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::string path = TempPath("rg");
  auto rel = Relation::Create(path).value();
  Rng rng(5);
  RealVec values = workload::RandomWalkSeries(&rng, n, {});
  ComplexVec spectrum(n, Complex(1.0, -1.0));
  for (int i = 0; i < 512; ++i) rel->Append("S", values, spectrum).value();
  uint64_t id = 0;
  for (auto _ : state) {
    auto rec = rel->Get(id % 512);
    benchmark::DoNotOptimize(rec->dft.data());
    ++id;
  }
  RemoveRelation(std::move(rel));
}
BENCHMARK(BM_RelationGet)->Arg(128)->Arg(1024);

// The record and wire-frame checksum alone, at a wire frame's size, a
// 128-point record's payload (about 3 KiB) and a large scan buffer.
void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  serde::Buffer bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(serde::Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(3 << 10)->Arg(256 << 10);

void BM_NodeSerializeDeserialize(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  rtree::Node node;
  node.level = 1;
  Rng rng(6);
  const size_t capacity = rtree::NodeCapacity(kDefaultPageSize, dims);
  for (size_t i = 0; i < capacity; ++i) {
    rtree::Entry e;
    spatial::Point lo(dims), hi(dims);
    for (size_t d = 0; d < dims; ++d) {
      lo[d] = rng.Uniform(0, 50);
      hi[d] = lo[d] + rng.Uniform(0, 10);
    }
    e.rect = spatial::Rect(std::move(lo), std::move(hi));
    e.id = i;
    node.entries.push_back(std::move(e));
  }
  Page page(kDefaultPageSize);
  rtree::Node back;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtree::SerializeNode(node, dims, &page).ok());
    benchmark::DoNotOptimize(rtree::DeserializeNode(page, dims, &back).ok());
  }
}
BENCHMARK(BM_NodeSerializeDeserialize)->Arg(2)->Arg(6)->Arg(14);

}  // namespace
}  // namespace tsq

int main(int argc, char** argv) {
  return tsq::bench::RunMicroBenchmarks(argc, argv, "BENCH_micro_storage.json");
}
