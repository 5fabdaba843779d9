// Copyright (c) 2026 The tsq Authors.

#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <iterator>

#include "obs/metrics.h"

namespace tsq {
namespace obs {

namespace {

std::atomic<int> g_tracing_armed{0};

thread_local ThreadStageNanos tls_stage_nanos;
thread_local StageTimer* tls_span_top = nullptr;
thread_local IndexCounters tls_index_counters;

// Every IndexCounters field, in IndexCounterTotals' slot order.
constexpr uint64_t IndexCounters::*kIndexCounterFields[] = {
    &IndexCounters::hits,
    &IndexCounters::misses,
    &IndexCounters::evictions,
    &IndexCounters::disk_reads,
    &IndexCounters::disk_writes,
    &IndexCounters::nodes_visited,
    &IndexCounters::rect_transforms,
    &IndexCounters::leaf_entries_tested,
};
static_assert(sizeof(IndexCounters) ==
                  sizeof(kIndexCounterFields) /
                      sizeof(kIndexCounterFields[0]) * sizeof(uint64_t),
              "kIndexCounterFields must list every IndexCounters field");

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Histogram* StageHistogram(Stage stage) {
  // One histogram per stage, registered once per process; indexed lookup
  // after that so the armed path stays allocation- and lock-free.
  static Histogram* histograms[kNumStages] = {
      RegisterHistogram("tsq_query_stage_self_us", "stage=\"prepare\""),
      RegisterHistogram("tsq_query_stage_self_us", "stage=\"descent\""),
      RegisterHistogram("tsq_query_stage_self_us", "stage=\"delta\""),
      RegisterHistogram("tsq_query_stage_self_us", "stage=\"pool_wait\""),
      RegisterHistogram("tsq_query_stage_self_us", "stage=\"refine\""),
  };
  return histograms[static_cast<int>(stage)];
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kPrepare:
      return "prepare";
    case Stage::kDescent:
      return "descent";
    case Stage::kDelta:
      return "delta";
    case Stage::kPoolWait:
      return "pool_wait";
    case Stage::kRefine:
      return "refine";
  }
  return "unknown";
}

const ThreadStageNanos& ThisThreadStageNanos() { return tls_stage_nanos; }

IndexCounters IndexCounters::operator-(const IndexCounters& before) const {
  IndexCounters out;
  for (const auto field : kIndexCounterFields) {
    out.*field = this->*field - before.*field;
  }
  return out;
}

const IndexCounters& ThisThreadIndexCounters() { return tls_index_counters; }

IndexCounters& MutableThisThreadIndexCounters() { return tls_index_counters; }

void IndexCounterTotals::Add(const IndexCounters& delta) {
  for (size_t i = 0; i < std::size(kIndexCounterFields); ++i) {
    if (const uint64_t n = delta.*kIndexCounterFields[i]; n != 0) {
      sums_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
}

IndexCounters IndexCounterTotals::Load() const {
  IndexCounters out;
  for (size_t i = 0; i < std::size(kIndexCounterFields); ++i) {
    out.*kIndexCounterFields[i] = sums_[i].load(std::memory_order_relaxed);
  }
  return out;
}

bool TracingArmed() {
  return g_tracing_armed.load(std::memory_order_relaxed) != 0;
}

void ArmTracing() { g_tracing_armed.store(1, std::memory_order_relaxed); }

void DisarmTracing() { g_tracing_armed.store(0, std::memory_order_relaxed); }

StageTimer::StageTimer(Stage stage)
    : stage_(stage), active_(TracingArmed()) {
  if (!active_) return;
  parent_ = tls_span_top;
  tls_span_top = this;
  start_ns_ = NowNanos();
}

StageTimer::~StageTimer() {
  if (!active_) return;
  const int64_t total = NowNanos() - start_ns_;
  int64_t self = total - child_ns_;
  if (self < 0) self = 0;  // clock steps are not our problem to amplify
  tls_stage_nanos.ns[static_cast<int>(stage_)] +=
      static_cast<uint64_t>(self);
  if (parent_ != nullptr) parent_->child_ns_ += total;
  tls_span_top = parent_;
  if (MetricsArmed()) {
    StageHistogram(stage_)->Observe(static_cast<uint64_t>(self));
  }
}

}  // namespace obs
}  // namespace tsq
