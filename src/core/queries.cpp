// Copyright (c) 2026 The tsq Authors.

#include "core/queries.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stopwatch.h"
#include "core/search_rect.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace tsq {

static_assert(obs::kNumStages == 5,
              "StageStatsCapture and the QueryStats stage fields assume "
              "five pipeline stages");

StageStatsCapture::StageStatsCapture(QueryStats* stats)
    : stats_(stats), active_(stats != nullptr && obs::TracingArmed()) {
  if (!active_) return;
  const obs::ThreadStageNanos& s = obs::ThisThreadStageNanos();
  for (size_t i = 0; i < obs::kNumStages; ++i) before_ns_[i] = s.ns[i];
}

StageStatsCapture::~StageStatsCapture() {
  if (!active_) return;
  const obs::ThreadStageNanos& s = obs::ThisThreadStageNanos();
  double ms[obs::kNumStages];
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    ms[i] = static_cast<double>(s.ns[i] - before_ns_[i]) * 1e-6;
  }
  stats_->traced = true;
  stats_->prepare_ms += ms[static_cast<int>(obs::Stage::kPrepare)];
  stats_->descent_ms += ms[static_cast<int>(obs::Stage::kDescent)];
  stats_->delta_ms += ms[static_cast<int>(obs::Stage::kDelta)];
  stats_->pool_wait_ms += ms[static_cast<int>(obs::Stage::kPoolWait)];
  stats_->refine_ms += ms[static_cast<int>(obs::Stage::kRefine)];
}

namespace {

/// Captures this thread's index-counter deltas around a query (the tree
/// and pool count each event in the counters of the thread that caused
/// it, and a query runs entirely on one thread, so the delta can never
/// include a concurrent query's work). Stage-timer deltas ride the same
/// contract through the embedded StageStatsCapture.
class StatsScope {
 public:
  explicit StatsScope(QueryStats* stats)
      : stats_(stats),
        before_(obs::ThisThreadIndexCounters()),
        stages_(stats) {}
  ~StatsScope() {
    if (stats_ == nullptr) return;
    const obs::IndexCounters d = obs::ThisThreadIndexCounters() - before_;
    stats_->nodes_visited += d.nodes_visited;
    stats_->rect_transforms += d.rect_transforms;
    stats_->disk_reads += d.disk_reads;
    stats_->elapsed_ms += watch_.ElapsedMillis();
  }

 private:
  QueryStats* stats_;
  obs::IndexCounters before_;
  StageStatsCapture stages_;
  Stopwatch watch_;
};

Status ValidateQuery(const KIndex& index, const RealVec& query) {
  if (query.size() != index.series_length()) {
    return Status::InvalidArgument(
        "query length " + std::to_string(query.size()) +
        " != indexed series length " +
        std::to_string(index.series_length()));
  }
  return CheckFinite(query, "query");
}

/// Loads delta slot `slot` into `*rect` as the point rect a tree leaf
/// would hold, mapped through `map` when given — in place, so a scan
/// reuses one rect for every slot. `rect` must have the delta's dims.
void LoadDeltaPoint(const DeltaIndex& delta, uint64_t slot,
                    const spatial::AffineMap* map, spatial::Rect* rect) {
  const double* coords = delta.CoordinatesAt(slot);
  for (size_t d = 0; d < delta.dims(); ++d) {
    rect->SetDim(d, coords[d], coords[d]);
  }
  if (map != nullptr) map->ApplyInto(*rect, rect);
}

/// Where a range or join refine may abandon a candidate's sum: a limit
/// such that every sum above it fails the accept test
/// `std::sqrt(sum) <= epsilon`. Sums up to a few ulps above epsilon^2
/// still have roots that round to epsilon, so the walk steps past them;
/// a correctly rounded sqrt is monotone, so once the next double's root
/// fails the test, every larger sum's root fails it too.
double RangeAbandonLimit(double epsilon) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double limit = epsilon * epsilon;
  while (limit < kInf && std::sqrt(std::nextafter(limit, kInf)) <= epsilon) {
    limit = std::nextafter(limit, kInf);
  }
  return limit;
}

/// Step 3's distance for one fetched candidate, shared by every indexed
/// refine loop (range, kNN, join): D^2(T(x), target), the transform
/// applied into scratch the refiner reuses, summed by the early-abandoning
/// kernel. Returns the full kernel's sum (its sqrt is VerifyDistance, bit
/// for bit) when that is <= limit, else some value > limit (simd.h). A
/// caller's accept test therefore decides as on the full sum whenever
/// every sum above `limit` fails it.
class Refiner {
 public:
  explicit Refiner(const std::optional<FeatureTransform>& transform)
      : transform_(transform.has_value() ? &transform->spectral : nullptr) {}

  double DistanceSquared(const ComplexVec& spectrum, const ComplexVec& target,
                         double limit) {
    const ComplexVec* x = &spectrum;
    if (transform_ != nullptr) {
      transform_->ApplyInto(spectrum, &scratch_);
      x = &scratch_;
    }
    TSQ_CHECK_MSG(x->size() == target.size(),
                  "refine: size mismatch %zu vs %zu", x->size(),
                  target.size());
    return simd::SumSquaredDiffEarlyAbandon(cvec::AsDoubles(*x),
                                            cvec::AsDoubles(target),
                                            2 * target.size(), limit);
  }

 private:
  const LinearTransform* transform_;
  ComplexVec scratch_;
};

}  // namespace

Result<PreparedQuery> PrepareQuery(const IndexView& view, const RealVec& query,
                                   const QuerySpec& spec) {
  obs::StageTimer span(obs::Stage::kPrepare);
  const KIndex& index = view.main();
  TSQ_RETURN_IF_ERROR(ValidateQuery(index, query));
  const SeriesFeatures qf = index.extractor().Extract(query);
  PreparedQuery out;
  out.mean = qf.mean;
  out.std = qf.std;
  if (spec.transform.has_value() && spec.mode == TransformMode::kBoth) {
    const FeatureTransform& t = *spec.transform;
    out.full_spectrum = t.spectral.Apply(qf.spectrum);
    out.mean = t.mean_scale * qf.mean + t.mean_offset;
    out.std = t.std_scale * qf.std;
  } else {
    out.full_spectrum = qf.spectrum;
  }
  out.coefficients = index.extractor().StoredCoefficients(out.full_spectrum);
  const LinearTransform* data_transform =
      spec.transform.has_value() ? &spec.transform->spectral : nullptr;
  out.mirror_error = MirrorError(
      index.layout(), index.series_length(), data_transform,
      spec.mode == TransformMode::kBoth ? data_transform : nullptr);
  // Finite samples or a hostile transform can still yield non-finite
  // features, and a search rectangle cannot be built around those; an
  // unordered (or NaN) mean/std window cannot form one either.
  TSQ_RETURN_IF_ERROR(CheckFinite(index.extractor().ToPointFromCoefficients(
                                      out.coefficients, out.mean, out.std),
                                  "query feature"));
  if (spec.window.has_value() &&
      !(spec.window->mean_lo <= spec.window->mean_hi &&
        spec.window->std_lo <= spec.window->std_hi)) {
    return Status::InvalidArgument("inverted or NaN mean/std window");
  }
  return out;
}

Status RangeSearchCandidates(const IndexView& view,
                             const PreparedQuery& prepared,
                             double epsilon, const QuerySpec& spec,
                             std::vector<SeriesId>* out) {
  TSQ_CHECK(out != nullptr);
  const KIndex& index = view.main();
  const RangeFilter filter = BuildRangeFilter(
      index.extractor(), prepared.coefficients, epsilon,
      index.series_length(), prepared.mirror_error, spec.window);
  std::optional<spatial::AffineMap> map;
  {
    obs::StageTimer span(obs::Stage::kDescent);
    if (spec.transform.has_value()) {
      TSQ_ASSIGN_OR_RETURN(map, index.space().ToAffineMap(*spec.transform));
    }
    TSQ_RETURN_IF_ERROR(
        index.RangeCandidates(filter, map.has_value() ? &*map : nullptr, out));
  }
  obs::StageTimer span(obs::Stage::kDelta);
  AppendDeltaRangeCandidates(view, map.has_value() ? &*map : nullptr, filter,
                             out);
  return Status::OK();
}

void AppendDeltaRangeCandidates(const IndexView& view,
                                const spatial::AffineMap* map,
                                const RangeFilter& filter,
                                std::vector<SeriesId>* out) {
  if (!view.has_delta()) return;
  const DeltaIndex& delta = view.delta();
  const FeatureSpace& space = view.main().space();
  spatial::Rect point = spatial::Rect::FromPoint(spatial::Point(delta.dims()));
  for (uint64_t slot = 0; slot < view.delta_size(); ++slot) {
    LoadDeltaPoint(delta, slot, map, &point);
    if (space.Keeps(filter, point)) out->push_back(delta.base() + slot);
  }
}

double VerifyDistance(const ComplexVec& data_spectrum,
                      const std::optional<FeatureTransform>& transform,
                      const ComplexVec& query_target) {
  if (transform.has_value()) {
    return cvec::Distance(transform->spectral.Apply(data_spectrum),
                          query_target);
  }
  return cvec::Distance(data_spectrum, query_target);
}

Status VerifyRangeCandidates(const Relation& relation,
                             const std::vector<SeriesId>& candidates,
                             const PreparedQuery& prepared,
                             const QuerySpec& spec, double epsilon,
                             std::vector<Match>* out, QueryStats* stats) {
  TSQ_CHECK(out != nullptr);
  obs::StageTimer span(obs::Stage::kRefine);
  Refiner refiner(spec.transform);
  const double limit = RangeAbandonLimit(epsilon);
  for (const SeriesId id : candidates) {
    TSQ_ASSIGN_OR_RETURN(SeriesRecord rec, relation.Get(id));
    if (stats != nullptr) ++stats->verified;
    const double d = std::sqrt(
        refiner.DistanceSquared(rec.dft, prepared.full_spectrum, limit));
    if (d <= epsilon) {
      out->push_back(Match{id, std::move(rec.name), d});
    }
  }
  return Status::OK();
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
}

Status IndexRangeQuery(const IndexView& index, const Relation& relation,
                       const RealVec& query, double epsilon,
                       const QuerySpec& spec, std::vector<Match>* out,
                       QueryStats* stats) {
  TSQ_CHECK(out != nullptr);
  out->clear();
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN query threshold");
  }
  StatsScope scope(stats);

  // Step 1 — preprocessing.
  TSQ_ASSIGN_OR_RETURN(const PreparedQuery prepared,
                       PrepareQuery(index, query, spec));

  // Step 2 — search, with the transformed traversal when applicable.
  std::vector<SeriesId> candidates;
  TSQ_RETURN_IF_ERROR(
      RangeSearchCandidates(index, prepared, epsilon, spec, &candidates));
  if (stats != nullptr) stats->candidates += candidates.size();

  // Step 3 — postprocessing against full database records.
  TSQ_RETURN_IF_ERROR(VerifyRangeCandidates(relation, candidates, prepared,
                                            spec, epsilon, out, stats));
  SortMatches(out);
  if (stats != nullptr) stats->answers += out->size();
  return Status::OK();
}

Status IndexKnnQuery(const IndexView& view, const Relation& relation,
                     const RealVec& query, size_t k, const QuerySpec& spec,
                     const KnnOptions& options, std::vector<Match>* out,
                     QueryStats* stats) {
  TSQ_CHECK(out != nullptr);
  const KIndex& index = view.main();
  out->clear();
  if (!(options.epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN kNN error tolerance");
  }
  if (k == 0) {
    TSQ_RETURN_IF_ERROR(ValidateQuery(index, query));
    return Status::OK();
  }
  StatsScope scope(stats);

  TSQ_ASSIGN_OR_RETURN(const PreparedQuery prepared,
                       PrepareQuery(view, query, spec));
  const spatial::Point query_point = index.extractor().ToPointFromCoefficients(
      prepared.coefficients, prepared.mean, prepared.std);
  const auto metric = index.space().MakeNnMetric(query_point);

  std::optional<spatial::AffineMap> map;
  if (spec.transform.has_value()) {
    TSQ_ASSIGN_OR_RETURN(map, index.space().ToAffineMap(*spec.transform));
  }

  // Optimal multi-step kNN: verify candidates in ascending lower-bound
  // order; once k answers are verified and the next lower bound exceeds the
  // k-th verified distance, no better answer can exist (the lower bound is
  // admissible w.r.t. the full-length distance). Everything runs in
  // SQUARED space — bounds arrive squared from the stream, candidates are
  // verified against a squared cutoff (abandoning at it), and the one
  // sqrt per answer happens at materialization. sqrt is monotone, so
  // every comparison decides exactly as its sqrt'ed counterpart.
  //
  // The stop rule (`past_kth`) judges every item the ranking surfaces,
  // not only candidates: a tree node before its page is read, a tree
  // entry, and an unmerged entry on its first, cheap key. Each such bound
  // is at most the bound of every candidate not yet visited (a node's
  // MINDIST bounds its subtree and the queue behind it; a cheap key
  // bounds its own exact key and every key behind it), so when the rule
  // fires on it, it would have fired on the next candidate too, before
  // that candidate was verified. The verified sequence, the answers and
  // the counts are therefore those of a search that tests candidates
  // only; the page reads and exact bounds past the stop are skipped.
  //
  // Approximation (KnnOptions) relaxes the stop rule: with tolerance
  // epsilon the cutoff fires once L^2 * (1+epsilon)^2 > d_k^2 — i.e. the
  // true k-th neighbor can undercut the reported one by at most a factor
  // (1+epsilon). epsilon = 0 makes the factor exactly 1.0 and multiplying
  // by 1.0 is exact, so the epsilon-0 path is bit-identical to exact. The
  // probe budget stops unconditionally before a candidate's verification;
  // whatever bound was in effect at the stop yields the observed
  // max_error.
  struct Verified {
    double dist_sq;
    SeriesId id;
    std::string name;
    bool operator<(const Verified& other) const {
      return dist_sq < other.dist_sq ||
             (dist_sq == other.dist_sq && id < other.id);
    }
  };
  std::vector<Verified> best;  // kept as a max-heap on squared distance
  Refiner refiner(spec.transform);
  auto heap_cmp = [](const Verified& a, const Verified& b) { return a < b; };

  const double relax = (1.0 + options.epsilon) * (1.0 + options.epsilon);
  Status inner_status;
  uint64_t visited = 0;
  bool stopped = false;          // any stop rule fired (incl. exact cutoff)
  double stop_bound_sq = std::numeric_limits<double>::infinity();

  // The exact (or epsilon-relaxed) optimality cutoff, for a lower bound
  // of everything not yet visited.
  auto past_kth = [&](double lower_bound_sq) {
    if (best.size() == k && lower_bound_sq * relax > best.front().dist_sq) {
      stopped = true;
      stop_bound_sq = lower_bound_sq;
      return true;
    }
    return false;
  };
  auto visit = [&](SeriesId id, double lower_bound_sq) -> bool {
    if (past_kth(lower_bound_sq)) return false;
    if (options.probe_budget > 0 && visited >= options.probe_budget) {
      stopped = true;
      stop_bound_sq = lower_bound_sq;
      return false;
    }
    ++visited;
    obs::StageTimer span(obs::Stage::kRefine);
    Result<SeriesRecord> rec = relation.Get(id);
    if (!rec.ok()) {
      inner_status = rec.status();
      return false;
    }
    // Abandon at the current k-th best: a candidate whose sum exceeds it
    // fails `d_sq < best.front().dist_sq` either way.
    const double limit = best.size() < k
                             ? std::numeric_limits<double>::infinity()
                             : best.front().dist_sq;
    const double d_sq =
        refiner.DistanceSquared(rec->dft, prepared.full_spectrum, limit);
    if (best.size() < k) {
      best.push_back(Verified{d_sq, id, std::move(rec->name)});
      std::push_heap(best.begin(), best.end(), heap_cmp);
    } else if (d_sq < best.front().dist_sq) {
      std::pop_heap(best.begin(), best.end(), heap_cmp);
      best.back() = Verified{d_sq, id, std::move(rec->name)};
      std::push_heap(best.begin(), best.end(), heap_cmp);
    }
    return true;
  };

  // Delta candidates, ranked by the admissible lower bound the tree
  // computes for its leaf entries (MinDistSquared on the transformed
  // point rectangle), lazily: each enters a min-heap on (key, id) under
  // the metric's cheap key, which is never above that bound, and gets the
  // bound itself only when it reaches the top. An entry is visited only
  // from the top with its exact key, every other entry's bound is at
  // least its own key, and ids are unique, so entries are visited in
  // ascending (bound, id) order, as a full sort by bound would give,
  // while an entry that never reaches the top costs one cheap key. The
  // merged visit order is globally nondecreasing in the bound — delta
  // entries drain strictly below each tree item's bound, ties go to the
  // tree — so the optimal multi-step cutoff treats main + delta as one
  // index.
  struct DeltaKey {
    double bound_sq;  // the cheap key until `exact`
    SeriesId id;
    bool exact;
  };
  auto after = [](const DeltaKey& a, const DeltaKey& b) {
    return a.bound_sq > b.bound_sq ||
           (a.bound_sq == b.bound_sq && a.id > b.id);
  };
  const spatial::AffineMap* map_ptr = map.has_value() ? &*map : nullptr;
  std::vector<DeltaKey> delta_heap;
  spatial::Rect delta_point;
  if (view.has_delta()) {
    obs::StageTimer span(obs::Stage::kDelta);
    const DeltaIndex& delta = view.delta();
    delta_point = spatial::Rect::FromPoint(spatial::Point(delta.dims()));
    delta_heap.reserve(view.delta_size());
    for (uint64_t slot = 0; slot < view.delta_size(); ++slot) {
      LoadDeltaPoint(delta, slot, map_ptr, &delta_point);
      delta_heap.push_back(DeltaKey{metric->CheapMinDistSquared(delta_point),
                                    delta.base() + slot, false});
    }
    std::make_heap(delta_heap.begin(), delta_heap.end(), after);
  }
  bool keep_going = true;
  auto drain_delta_below = [&](double bound_sq) {
    while (keep_going && !delta_heap.empty() &&
           delta_heap.front().bound_sq < bound_sq) {
      std::pop_heap(delta_heap.begin(), delta_heap.end(), after);
      const DeltaKey top = delta_heap.back();
      if (top.exact) {
        delta_heap.pop_back();
        keep_going = visit(top.id, top.bound_sq);
      } else if (past_kth(top.bound_sq)) {
        keep_going = false;
      } else {
        obs::StageTimer span(obs::Stage::kDelta);
        const DeltaIndex& delta = view.delta();
        LoadDeltaPoint(delta, top.id - delta.base(), map_ptr, &delta_point);
        delta_heap.back() =
            DeltaKey{metric->MinDistSquared(delta_point), top.id, true};
        std::push_heap(delta_heap.begin(), delta_heap.end(), after);
      }
    }
  };

  {
    // The stream span covers the best-first traversal; per-candidate
    // verification inside `visit` opens its own kRefine span and a delta
    // key's refinement its own kDelta span, so descent self-time is pure
    // tree work. A node the stop rule rules out is never read.
    obs::StageTimer span(obs::Stage::kDescent);
    TSQ_RETURN_IF_ERROR(index.StreamNearest(
        *metric, map_ptr,
        [&](std::optional<SeriesId> id, double lower_bound_sq) {
          drain_delta_below(lower_bound_sq);
          if (keep_going) {
            keep_going = id.has_value() ? visit(*id, lower_bound_sq)
                                        : !past_kth(lower_bound_sq);
          }
          return keep_going;
        }));
  }
  TSQ_RETURN_IF_ERROR(inner_status);
  if (keep_going) {
    // Tree exhausted without hitting the cutoff; remaining delta
    // candidates all bound at or above every tree emission.
    obs::StageTimer span(obs::Stage::kDelta);
    drain_delta_below(std::numeric_limits<double>::infinity());
    TSQ_RETURN_IF_ERROR(inner_status);
  }

  std::sort(best.begin(), best.end());
  out->reserve(best.size());
  for (Verified& v : best) {
    out->push_back(Match{v.id, std::move(v.name), std::sqrt(v.dist_sq)});
  }

  // Observed error bound: when the search stopped at lower bound L with
  // L < d_k, the true k-th distance lies in [L, d_k], so every reported
  // distance is within d_k / L of its true rank's distance. When the
  // index was exhausted, or the stopping bound already dominates d_k
  // (every exact run), the answer is provably exact: error 0. A probe
  // budget can stop the search before k answers were even found; the
  // distances of the missing ranks are then unbounded, so no finite
  // error can be certified.
  double max_error = 0.0;
  if (stopped) {
    if (best.size() < k) {
      max_error = std::numeric_limits<double>::infinity();
    } else {
      const double d_k_sq = best.back().dist_sq;  // k-th: best is sorted now
      if (stop_bound_sq < d_k_sq) {
        max_error = stop_bound_sq > 0.0
                        ? std::sqrt(d_k_sq / stop_bound_sq) - 1.0
                        : std::numeric_limits<double>::infinity();
      }
    }
  }

  if (stats != nullptr) {
    stats->candidates += visited;
    stats->verified += visited;
    stats->answers += out->size();
    const uint64_t total = view.total_series();
    stats->pruned += total > visited ? total - visited : 0;
    if (max_error > stats->max_error) stats->max_error = max_error;
    stats->approx = stats->approx || !options.is_default();
  }
  return Status::OK();
}

Status IndexKnnQuery(const IndexView& view, const Relation& relation,
                     const RealVec& query, size_t k, const QuerySpec& spec,
                     std::vector<Match>* out, QueryStats* stats) {
  return IndexKnnQuery(view, relation, query, k, spec, KnnOptions{}, out,
                       stats);
}

Status IndexSelfJoin(const IndexView& view, const Relation& relation,
                     double epsilon,
                     const std::optional<FeatureTransform>& transform,
                     std::vector<JoinPair>* out, QueryStats* stats) {
  TSQ_CHECK(out != nullptr);
  const KIndex& index = view.main();
  out->clear();
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN join threshold");
  }
  StatsScope scope(stats);

  std::optional<spatial::AffineMap> map;
  if (transform.has_value()) {
    TSQ_ASSIGN_OR_RETURN(map, index.space().ToAffineMap(*transform));
  }

  // Paper Sec. 5 methods c/d: for every sequence in view build the range
  // filter and pose it to the (transformed) index — tree plus delta — as
  // a range query; verify candidates with full-length distances. The
  // view bounds the iteration (not relation.size()): ids ingested after
  // the view was taken are invisible to it, keeping the join closed over
  // one consistent set of series under concurrent ingest. Both sides of
  // every pair are stored series under the same transform.
  const uint64_t n = view.total_series();
  const spatial::AffineMap* map_ptr = map.has_value() ? &*map : nullptr;
  const LinearTransform* spectral =
      transform.has_value() ? &transform->spectral : nullptr;
  const std::optional<double> mirror_error = MirrorError(
      index.layout(), index.series_length(), spectral, spectral);
  Refiner refiner(transform);
  const double limit = RangeAbandonLimit(epsilon);
  for (SeriesId qid = 0; qid < n; ++qid) {
    std::vector<SeriesId> candidates;
    ComplexVec target;
    {
      obs::StageTimer prepare_span(obs::Stage::kPrepare);
      TSQ_ASSIGN_OR_RETURN(SeriesRecord qrec, relation.Get(qid));
      if (stats != nullptr) ++stats->records_scanned;
      target = transform.has_value() ? transform->spectral.Apply(qrec.dft)
                                     : qrec.dft;
    }
    const RangeFilter filter = BuildRangeFilter(
        index.extractor(), index.extractor().StoredCoefficients(target),
        epsilon, index.series_length(), mirror_error, std::nullopt);
    {
      obs::StageTimer descent_span(obs::Stage::kDescent);
      TSQ_RETURN_IF_ERROR(index.RangeCandidates(filter, map_ptr, &candidates));
    }
    {
      obs::StageTimer delta_span(obs::Stage::kDelta);
      AppendDeltaRangeCandidates(view, map_ptr, filter, &candidates);
    }
    if (stats != nullptr) stats->candidates += candidates.size();

    obs::StageTimer refine_span(obs::Stage::kRefine);
    for (const SeriesId cid : candidates) {
      if (cid == qid) continue;
      TSQ_ASSIGN_OR_RETURN(SeriesRecord crec, relation.Get(cid));
      if (stats != nullptr) ++stats->verified;
      const double d =
          std::sqrt(refiner.DistanceSquared(crec.dft, target, limit));
      if (d <= epsilon) {
        out->push_back(JoinPair{qid, cid, d});
      }
    }
  }
  if (stats != nullptr) stats->answers += out->size();
  return Status::OK();
}

}  // namespace tsq
