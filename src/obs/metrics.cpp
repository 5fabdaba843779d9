// Copyright (c) 2026 The tsq Authors.

#include "obs/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/macros.h"

namespace tsq {
namespace obs {

namespace {

std::atomic<int> g_metrics_armed{0};

const char* TypeName(int type) {
  switch (type) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

void AppendSampleName(std::string* out, const std::string& family,
                      const std::string& labels, const char* suffix = "",
                      const std::string& extra_label = "") {
  out->append(family);
  out->append(suffix);
  if (!labels.empty() || !extra_label.empty()) {
    out->push_back('{');
    out->append(labels);
    if (!labels.empty() && !extra_label.empty()) out->push_back(',');
    out->append(extra_label);
    out->push_back('}');
  }
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out->append(buf);
}

}  // namespace

bool MetricsArmed() {
  return g_metrics_armed.load(std::memory_order_relaxed) != 0;
}

void ArmMetrics() { g_metrics_armed.store(1, std::memory_order_relaxed); }

void DisarmMetrics() { g_metrics_armed.store(0, std::memory_order_relaxed); }

void Histogram::Observe(uint64_t nanos) {
  // Round up to whole microseconds so a sub-us observation lands in the
  // le="1" bucket instead of vanishing below the scale.
  const uint64_t us = nanos / 1000 + (nanos % 1000 != 0 ? 1 : 0);
  // Smallest i with us <= 2^i; values above the largest finite bound go
  // to the +Inf bucket (index kFiniteBuckets).
  size_t idx = 0;
  if (us > 1) idx = static_cast<size_t>(std::bit_width(us - 1));
  if (idx > kFiniteBuckets) idx = kFiniteBuckets;
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot out;
  for (size_t i = 0; i < kBuckets; ++i) {
    out.counts[i] = counts_[i].load(std::memory_order_relaxed);
    out.total += out.counts[i];
  }
  out.sum_nanos = sum_nanos_.load(std::memory_order_relaxed);
  return out;
}

Histogram::Snapshot SnapshotDelta(const Histogram::Snapshot& a,
                                  const Histogram::Snapshot& b) {
  Histogram::Snapshot out;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    TSQ_CHECK_MSG(a.counts[i] >= b.counts[i],
                  "SnapshotDelta(a, b) with a reversed pair: bucket %zu "
                  "holds %llu in b but %llu in a",
                  i, static_cast<unsigned long long>(b.counts[i]),
                  static_cast<unsigned long long>(a.counts[i]));
    out.counts[i] = a.counts[i] - b.counts[i];
    out.total += out.counts[i];
  }
  out.sum_nanos = a.sum_nanos - b.sum_nanos;
  return out;
}

double SnapshotQuantileMicros(const Histogram::Snapshot& snap, double q) {
  if (snap.total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(snap.total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t in_bucket = snap.counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i >= Histogram::kFiniteBuckets) {
        // +Inf bucket: no upper bound; report the largest finite bound.
        return static_cast<double>(
            Histogram::BucketUpperMicros(Histogram::kFiniteBuckets - 1));
      }
      const double upper =
          static_cast<double>(Histogram::BucketUpperMicros(i));
      const double lower = i == 0 ? 0.0 : upper / 2.0;
      const double into =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * into;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(
      Histogram::BucketUpperMicros(Histogram::kFiniteBuckets - 1));
}

Registry& Registry::Global() {
  // Leaked: metrics may be ticked from static destructors, and the
  // pointers handed out by Get* must never dangle.
  static Registry* global = new Registry();
  return *global;
}

Registry::Entry* Registry::FindOrCreate(const std::string& family,
                                        const std::string& labels,
                                        Type type) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Entry>& e : entries_) {
    if (e->family == family && e->labels == labels) {
      if (e->type != type) {
        TSQ_LOG(kError) << "metric family '" << family
                        << "' re-registered as " << TypeName(int(type))
                        << " (was " << TypeName(int(e->type)) << ")";
        std::abort();
      }
      return e.get();
    }
    if (e->family == family && e->type != type) {
      TSQ_LOG(kError) << "metric family '" << family
                      << "' carries mixed types";
      std::abort();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->family = family;
  entry->labels = labels;
  entry->type = type;
  switch (type) {
    case Type::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Type::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Type::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* Registry::GetCounter(const std::string& family,
                              const std::string& labels) {
  return FindOrCreate(family, labels, Type::kCounter)->counter.get();
}

Gauge* Registry::GetGauge(const std::string& family,
                          const std::string& labels) {
  return FindOrCreate(family, labels, Type::kGauge)->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& family,
                                  const std::string& labels) {
  return FindOrCreate(family, labels, Type::kHistogram)->histogram.get();
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  // Families in first-registration order, every label set of a family
  // under one # TYPE line (the exposition format requires grouping,
  // and label sets of one family register interleaved with others).
  std::vector<const Entry*> group;
  for (size_t i = 0; i < entries_.size(); ++i) {
    bool first_of_family = true;
    for (size_t j = 0; j < i; ++j) {
      if (entries_[j]->family == entries_[i]->family) {
        first_of_family = false;
        break;
      }
    }
    if (!first_of_family) continue;
    group.clear();
    for (const std::unique_ptr<Entry>& e : entries_) {
      if (e->family == entries_[i]->family) group.push_back(e.get());
    }
    out.append("# TYPE ");
    out.append(entries_[i]->family);
    out.push_back(' ');
    out.append(TypeName(int(entries_[i]->type)));
    out.push_back('\n');
    for (const Entry* e : group) RenderEntry(*e, &out);
  }
  return out;
}

void Registry::RenderEntry(const Entry& e, std::string* outp) {
  std::string& out = *outp;
  switch (e.type) {
    case Type::kCounter:
      AppendSampleName(&out, e.family, e.labels);
      out.push_back(' ');
      AppendUint(&out, e.counter->Value());
      out.push_back('\n');
      break;
    case Type::kGauge: {
      AppendSampleName(&out, e.family, e.labels);
      out.push_back(' ');
      const int64_t v = e.gauge->Value();
      if (v < 0) out.push_back('-');
      AppendUint(&out, static_cast<uint64_t>(v < 0 ? -v : v));
      out.push_back('\n');
      break;
    }
    case Type::kHistogram: {
      const Histogram::Snapshot snap = e.histogram->Snap();
      uint64_t cumulative = 0;
      for (size_t i = 0; i < Histogram::kFiniteBuckets; ++i) {
        cumulative += snap.counts[i];
        std::string le = "le=\"";
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%" PRIu64,
                      Histogram::BucketUpperMicros(i));
        le.append(bound);
        le.push_back('"');
        AppendSampleName(&out, e.family, e.labels, "_bucket", le);
        out.push_back(' ');
        AppendUint(&out, cumulative);
        out.push_back('\n');
      }
      AppendSampleName(&out, e.family, e.labels, "_bucket", "le=\"+Inf\"");
      out.push_back(' ');
      AppendUint(&out, snap.total);
      out.push_back('\n');
      AppendSampleName(&out, e.family, e.labels, "_sum");
      out.push_back(' ');
      AppendDouble(&out, static_cast<double>(snap.sum_nanos) / 1000.0);
      out.push_back('\n');
      AppendSampleName(&out, e.family, e.labels, "_count");
      out.push_back(' ');
      AppendUint(&out, snap.total);
      out.push_back('\n');
      break;
    }
  }
}

Counter* RegisterCounter(const std::string& family,
                         const std::string& labels) {
  return Registry::Global().GetCounter(family, labels);
}

Gauge* RegisterGauge(const std::string& family, const std::string& labels) {
  return Registry::Global().GetGauge(family, labels);
}

Histogram* RegisterHistogram(const std::string& family,
                             const std::string& labels) {
  return Registry::Global().GetHistogram(family, labels);
}

}  // namespace obs
}  // namespace tsq
