// Copyright (c) 2026 The tsq Authors.

#include "core/seq_scan.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace tsq {

namespace {

/// D(T(x), q_target) with early abandoning; `t` may be null (identity).
/// The untransformed case runs through the kernel layer (checkpointed
/// early abandon); the transformed case stays a scalar loop — the complex
/// multiply dominates and per-element abandon wins more there.
std::optional<double> EarlyAbandonToTarget(const ComplexVec& x,
                                           const LinearTransform* t,
                                           const ComplexVec& target,
                                           double epsilon) {
  TSQ_DCHECK(x.size() == target.size());
  const double limit = epsilon * epsilon;
  double acc = 0.0;
  if (t == nullptr) {
    acc = simd::SumSquaredDiffEarlyAbandon(
        cvec::AsDoubles(x), cvec::AsDoubles(target), 2 * x.size(), limit);
    if (acc > limit) return std::nullopt;
  } else {
    const ComplexVec& a = t->a();
    const ComplexVec& b = t->b();
    for (size_t f = 0; f < x.size(); ++f) {
      acc += std::norm(a[f] * x[f] + b[f] - target[f]);
      if (acc > limit) return std::nullopt;
    }
  }
  return std::sqrt(acc);
}

/// Full (no abandon) variant.
double FullDistanceToTarget(const ComplexVec& x, const LinearTransform* t,
                            const ComplexVec& target) {
  TSQ_DCHECK(x.size() == target.size());
  double acc = 0.0;
  if (t == nullptr) {
    acc = cvec::DistanceSquared(x, target);
  } else {
    const ComplexVec& a = t->a();
    const ComplexVec& b = t->b();
    for (size_t f = 0; f < x.size(); ++f) {
      acc += std::norm(a[f] * x[f] + b[f] - target[f]);
    }
  }
  return std::sqrt(acc);
}

}  // namespace

std::optional<double> EarlyAbandonPairDistance(const ComplexVec& x,
                                               const ComplexVec& y,
                                               const LinearTransform* t,
                                               double epsilon) {
  TSQ_DCHECK(x.size() == y.size());
  const double limit = epsilon * epsilon;
  double acc = 0.0;
  if (t == nullptr) {
    acc = simd::SumSquaredDiffEarlyAbandon(
        cvec::AsDoubles(x), cvec::AsDoubles(y), 2 * x.size(), limit);
    if (acc > limit) return std::nullopt;
  } else {
    // T(x)-T(y) = a*(x-y): one complex multiply per coefficient.
    const ComplexVec& a = t->a();
    for (size_t f = 0; f < x.size(); ++f) {
      acc += std::norm(a[f] * (x[f] - y[f]));
      if (acc > limit) return std::nullopt;
    }
  }
  return std::sqrt(acc);
}

Status SeqScanRangeQuery(const Relation& relation,
                         const FeatureExtractor& extractor,
                         const RealVec& query, double epsilon,
                         const QuerySpec& spec, bool early_abandon,
                         std::vector<Match>* out, QueryStats* stats) {
  TSQ_CHECK(out != nullptr);
  out->clear();
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN query threshold");
  }
  Stopwatch watch;
  StageStatsCapture stages(stats);

  ComplexVec target;
  const LinearTransform* t = nullptr;
  {
    obs::StageTimer prepare_span(obs::Stage::kPrepare);
    const SeriesFeatures qf = extractor.Extract(query);
    target = qf.spectrum;
    if (spec.transform.has_value()) {
      t = &spec.transform->spectral;
      if (spec.mode == TransformMode::kBoth) {
        target = spec.transform->spectral.Apply(qf.spectrum);
      }
    }
  }

  obs::StageTimer refine_span(obs::Stage::kRefine);
  Status scan_status = relation.Scan([&](const SeriesRecord& rec) {
    if (stats != nullptr) ++stats->records_scanned;
    if (rec.dft.size() != target.size()) return true;  // length mismatch
    if (early_abandon) {
      std::optional<double> d =
          EarlyAbandonToTarget(rec.dft, t, target, epsilon);
      if (d.has_value()) out->push_back(Match{rec.id, rec.name, *d});
    } else {
      const double d = FullDistanceToTarget(rec.dft, t, target);
      if (d <= epsilon) out->push_back(Match{rec.id, rec.name, d});
    }
    return true;
  });
  TSQ_RETURN_IF_ERROR(scan_status);

  SortMatches(out);
  if (stats != nullptr) {
    stats->answers += out->size();
    stats->elapsed_ms += watch.ElapsedMillis();
  }
  return Status::OK();
}

Status SeqScanSelfJoin(const Relation& relation, double epsilon,
                       const std::optional<FeatureTransform>& transform,
                       bool early_abandon, std::vector<JoinPair>* out,
                       QueryStats* stats) {
  TSQ_CHECK(out != nullptr);
  out->clear();
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN join threshold");
  }
  Stopwatch watch;
  StageStatsCapture stages(stats);
  obs::StageTimer refine_span(obs::Stage::kRefine);

  // Faithful to the paper's methods a/b: a nested-loop join over the
  // *disk-resident* relation — "scan the relation of Fourier coefficients
  // sequentially, and compare every sequence s to all the sequences that
  // are after s in the relation". Every inner comparison re-reads the
  // record through the storage layer; the transformation is applied during
  // the comparison (method a materializes both transformed spectra in
  // full; method b fuses transform and distance and abandons at epsilon).
  const LinearTransform* t =
      transform.has_value() ? &transform->spectral : nullptr;
  const uint64_t n = relation.size();

  for (SeriesId i = 0; i < n; ++i) {
    TSQ_ASSIGN_OR_RETURN(SeriesRecord outer, relation.Get(i));
    if (stats != nullptr) ++stats->records_scanned;
    for (SeriesId j = i + 1; j < n; ++j) {
      TSQ_ASSIGN_OR_RETURN(SeriesRecord inner, relation.Get(j));
      if (stats != nullptr) ++stats->records_scanned;
      if (early_abandon) {
        std::optional<double> d =
            EarlyAbandonPairDistance(outer.dft, inner.dft, t, epsilon);
        if (d.has_value()) {
          out->push_back(JoinPair{i, j, *d});
        }
      } else {
        // Method a: transform both sides in full, then the full distance —
        // deliberately no shortcuts.
        double d;
        if (t != nullptr) {
          d = cvec::Distance(t->Apply(outer.dft), t->Apply(inner.dft));
        } else {
          d = cvec::Distance(outer.dft, inner.dft);
        }
        if (d <= epsilon) out->push_back(JoinPair{i, j, d});
      }
    }
  }
  if (stats != nullptr) {
    stats->answers += out->size();
    stats->elapsed_ms += watch.ElapsedMillis();
  }
  return Status::OK();
}

}  // namespace tsq
