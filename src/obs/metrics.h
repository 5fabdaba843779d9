// Copyright (c) 2026 The tsq Authors.
//
// Lock-light metrics registry: named counters, gauges and log2-bucket
// latency histograms with a Prometheus-style text exposition. The design
// follows the failpoint registry (common/failpoint.h):
//
//   - Registration returns a raw pointer that stays valid for the life of
//     the registry; call sites cache it in a function-local static so the
//     name lookup happens once per site, not per event.
//   - The hot path is branch-plus-relaxed-atomic: every instrumented site
//     gates on MetricsArmed() — a single relaxed load of one global atomic
//     — so a binary that never scrapes pays one predictable-not-taken
//     branch per site and touches no shared cache line. Arming is a
//     coarse, process-wide switch (tsqd arms at Server::Start; tests and
//     benches arm explicitly); there is no per-metric arming.
//   - Updates are relaxed fetch_add/store on per-metric atomics. A scrape
//     is a racy-but-coherent snapshot: each value read is some value the
//     metric actually held, counters never appear to decrease, and a
//     quiesced registry renders exact totals (asserted in obs_test).
//
// The registry itself is instantiable (tests build private ones); the
// process-wide instance behind Registry::Global() is what the free
// RegisterCounter/RegisterGauge/RegisterHistogram helpers and tsqd's
// METRICS verb use. Global() leaks deliberately, so instrumented code in
// static destructors can still tick counters.

#ifndef TSQ_OBS_METRICS_H_
#define TSQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tsq {
namespace obs {

/// True when some consumer (a scraper, a bench, a test) wants metric
/// updates. One relaxed load; instrumented sites skip their fetch_add
/// entirely while disarmed, so the disarmed cost per site is one branch.
bool MetricsArmed();
void ArmMetrics();
void DisarmMetrics();

/// Monotone counter. Add() is a relaxed fetch_add; call sites gate on
/// MetricsArmed() themselves (the registry does not re-check, so tests
/// can tick metrics without arming the process).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value, set whole (typically from a StatsSnapshot at
/// scrape time rather than maintained on a hot path).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket latency histogram over microseconds with power-of-two
/// upper bounds: bucket i counts observations with value <= 2^i us
/// (i = 0..kFiniteBuckets-1), and one final +Inf bucket. Fixed buckets
/// mean Observe() is an index computation plus two relaxed fetch_adds —
/// no allocation, no lock, no per-histogram configuration to validate.
/// The sum is kept in integer nanoseconds so it is a single relaxed
/// fetch_add too (Prometheus exposition converts to us at render time).
class Histogram {
 public:
  /// 2^0 .. 2^25 us (~33.5 s) finite bounds, then +Inf.
  static constexpr size_t kFiniteBuckets = 26;
  static constexpr size_t kBuckets = kFiniteBuckets + 1;

  void Observe(uint64_t nanos);

  /// Upper bound of finite bucket i, in microseconds.
  static uint64_t BucketUpperMicros(size_t i) { return uint64_t{1} << i; }

  /// A coherent-enough copy for rendering and quantile estimation; under
  /// concurrent Observe() the copy may straddle an update (count and sum
  /// read at slightly different instants), never torn values.
  struct Snapshot {
    uint64_t counts[kBuckets] = {};  // per-bucket (non-cumulative)
    uint64_t total = 0;
    uint64_t sum_nanos = 0;
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> sum_nanos_{0};
};

/// a - b, fieldwise: the histogram activity between two snapshots of the
/// same (monotone) histogram, `a` the later one. Aborts when some bucket
/// of `b` exceeds `a`'s — the pair is reversed, and every count would
/// wrap below zero.
Histogram::Snapshot SnapshotDelta(const Histogram::Snapshot& a,
                                  const Histogram::Snapshot& b);

/// Quantile estimate in microseconds from bucket counts (q in [0,1]):
/// linear interpolation within the selected bucket; observations in the
/// +Inf bucket report the largest finite bound. 0 for an empty snapshot.
double SnapshotQuantileMicros(const Histogram::Snapshot& snap, double q);

/// Named-metric registry. `labels` is the pre-rendered Prometheus label
/// body without braces (e.g. `verb="query"`), empty for an unlabeled
/// metric; one family may carry many label sets but only one type.
/// Get* is idempotent on (family, labels) and aborts on a type conflict
/// (two sites disagreeing about a family is a bug, not an input).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (never destroyed).
  static Registry& Global();

  Counter* GetCounter(const std::string& family,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& family, const std::string& labels = "");
  Histogram* GetHistogram(const std::string& family,
                          const std::string& labels = "");

  /// Prometheus text exposition: one `# TYPE` line per family (in first-
  /// registration order), then one sample line per label set — counters
  /// and gauges as `family{labels} value`, histograms as cumulative
  /// `family_bucket{...,le="..."}` series plus `family_sum` (us) and
  /// `family_count`.
  std::string RenderPrometheus() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string family;
    std::string labels;
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& family, const std::string& labels,
                      Type type);
  static void RenderEntry(const Entry& e, std::string* out);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
};

/// Global-registry registration helpers — the spelling instrumented call
/// sites use, cached in a function-local static:
///
///   static obs::Counter* hits = obs::RegisterCounter("tsq_foo_total");
///   if (obs::MetricsArmed()) hits->Add();
Counter* RegisterCounter(const std::string& family,
                         const std::string& labels = "");
Gauge* RegisterGauge(const std::string& family,
                     const std::string& labels = "");
Histogram* RegisterHistogram(const std::string& family,
                             const std::string& labels = "");

}  // namespace obs
}  // namespace tsq

#endif  // TSQ_OBS_METRICS_H_
