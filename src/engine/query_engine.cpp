// Copyright (c) 2026 The tsq Authors.

#include "engine/query_engine.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/stopwatch.h"
#include "core/search_rect.h"

namespace tsq {
namespace engine {

namespace {

void RunOne(const BatchQuery& query, const IndexView& view,
            const Relation& relation, BatchResult* result) {
  switch (query.kind) {
    case BatchQueryKind::kRange:
      result->status =
          IndexRangeQuery(view, relation, query.query, query.epsilon,
                          query.spec, &result->matches, &result->stats);
      return;
    case BatchQueryKind::kKnn:
      result->status =
          IndexKnnQuery(view, relation, query.query, query.k, query.spec,
                        query.knn, &result->matches, &result->stats);
      return;
  }
  result->status = Status::InvalidArgument("unknown batch query kind");
}

}  // namespace

Result<BatchResult> SingleResult(Result<std::vector<BatchResult>> results) {
  TSQ_RETURN_IF_ERROR(results.status());
  if (results->size() != 1) {
    return Status::Corruption("single query answered with " +
                              std::to_string(results->size()) + " results");
  }
  BatchResult result = std::move(results->front());
  TSQ_RETURN_IF_ERROR(result.status);
  return result;
}

std::vector<BatchResult> RunBatch(const IndexView& view,
                                  const Relation& relation,
                                  const std::vector<BatchQuery>& queries,
                                  ThreadPool* pool, size_t threads,
                                  obs::IndexCounterTotals* counters,
                                  BatchStats* batch_stats) {
  std::vector<BatchResult> results(queries.size());
  Stopwatch wall;

  // Work stealing over an atomic cursor: each query writes only its own
  // slot, so the output is identical for any thread count.
  pool->ParallelFor(
      queries.size(),
      [&](size_t i) {
        const obs::IndexCounterScope count(counters);
        RunOne(queries[i], view, relation, &results[i]);
      },
      threads);

  if (batch_stats != nullptr) {
    *batch_stats = BatchStats();
    // Per-query stats are exact (thread-local counter deltas), so the
    // aggregate is simply their sum — no whole-batch shared-counter
    // measurement needed.
    for (const BatchResult& r : results) {
      batch_stats->aggregate.Merge(r.stats);
    }
    batch_stats->wall_ms = wall.ElapsedMillis();
  }
  return results;
}

Result<std::vector<JoinPair>> SelfJoin(
    const IndexView& view, const Relation& relation, double epsilon,
    const std::optional<FeatureTransform>& transform, ThreadPool* pool,
    size_t threads, obs::IndexCounterTotals* counters, QueryStats* stats) {
  const KIndex& kindex = view.main();
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN join threshold");
  }
  Stopwatch watch;
  // This join's own index work, summed over its drivers for `stats`;
  // every unit of it is added to `counters` as well.
  obs::IndexCounterTotals tally;

  std::optional<spatial::AffineMap> map;
  if (transform.has_value()) {
    TSQ_ASSIGN_OR_RETURN(map, kindex.space().ToAffineMap(*transform));
  }
  const spatial::AffineMap* map_ptr = map.has_value() ? &*map : nullptr;
  const rtree::RStarTree& tree = *kindex.tree();
  const auto may_join = kindex.space().MakeJoinPredicate(epsilon);

  // Phase 1 (parallel descent): the qualifying root-child pairs are
  // independent lockstep-descent tasks (JoinSeeds mirrors the order the
  // sequential traversal would recurse in). Each seed collects candidates
  // into its own buffer; concatenating the buffers in seed order yields
  // exactly the sequential JoinWith candidate sequence, so the join stays
  // bit-identical at every thread count.
  std::vector<rtree::RStarTree::JoinSeed> seeds;
  {
    const obs::IndexCounterScope to_join(&tally), to_db(counters);
    TSQ_ASSIGN_OR_RETURN(seeds,
                         tree.JoinSeeds(tree, map_ptr, map_ptr, may_join));
  }

  std::vector<std::vector<std::pair<SeriesId, SeriesId>>> seed_out(
      seeds.size());
  std::vector<Status> seed_status(seeds.size());
  const auto descend = [&](size_t i) {
    const obs::IndexCounterScope to_join(&tally), to_db(counters);
    seed_status[i] = tree.JoinFrom(
        seeds[i], tree, map_ptr, map_ptr, may_join,
        [&out = seed_out[i]](uint64_t a, uint64_t b) {
          if (a != b) out.emplace_back(a, b);
          return true;
        });
  };
  pool->ParallelFor(seeds.size(), descend, threads);
  size_t num_candidates = 0;
  for (size_t i = 0; i < seeds.size(); ++i) {
    TSQ_RETURN_IF_ERROR(seed_status[i]);
    num_candidates += seed_out[i].size();
  }
  std::vector<std::pair<SeriesId, SeriesId>> candidates;
  candidates.reserve(num_candidates);
  for (std::vector<std::pair<SeriesId, SeriesId>>& part : seed_out) {
    candidates.insert(candidates.end(), part.begin(), part.end());
  }

  // Phase 1b (parallel): delta probes. Each unmerged series in view runs
  // one range-filter probe — against the main tree (emitting both
  // ordered pairs) and against the other delta entries (emitting its own
  // direction only; the partner's probe emits the reverse). Per-slot
  // buffers concatenated in slot order keep the candidate sequence — and
  // therefore the final output — identical at every thread count.
  if (view.has_delta()) {
    const DeltaIndex& delta = view.delta();
    const uint64_t num_slots = view.delta_size();
    const LinearTransform* spectral =
        transform.has_value() ? &transform->spectral : nullptr;
    const std::optional<double> mirror_error = MirrorError(
        kindex.layout(), kindex.series_length(), spectral, spectral);
    std::vector<std::vector<std::pair<SeriesId, SeriesId>>> slot_out(
        num_slots);
    std::vector<Status> slot_status(num_slots);
    const auto probe_slot = [&](size_t i) {
      const obs::IndexCounterScope to_join(&tally), to_db(counters);
      const SeriesId qid = delta.base() + i;
      Result<SeriesRecord> qrec = relation.Get(qid);
      if (!qrec.ok()) {
        slot_status[i] = qrec.status();
        return;
      }
      ComplexVec target = transform.has_value()
                              ? transform->spectral.Apply(qrec->dft)
                              : std::move(qrec->dft);
      const RangeFilter filter = BuildRangeFilter(
          kindex.extractor(), kindex.extractor().StoredCoefficients(target),
          epsilon, kindex.series_length(), mirror_error, std::nullopt);
      std::vector<SeriesId> partners;
      slot_status[i] = kindex.RangeCandidates(filter, map_ptr, &partners);
      if (!slot_status[i].ok()) return;
      for (const SeriesId partner : partners) {
        slot_out[i].emplace_back(qid, partner);
        slot_out[i].emplace_back(partner, qid);
      }
      partners.clear();
      AppendDeltaRangeCandidates(view, map_ptr, filter, &partners);
      for (const SeriesId partner : partners) {
        if (partner != qid) slot_out[i].emplace_back(qid, partner);
      }
    };
    pool->ParallelFor(num_slots, probe_slot, threads);
    for (uint64_t i = 0; i < num_slots; ++i) {
      TSQ_RETURN_IF_ERROR(slot_status[i]);
      candidates.insert(candidates.end(), slot_out[i].begin(),
                        slot_out[i].end());
    }
    if (stats != nullptr) stats->records_scanned += num_slots;
  }

  // Phase 2a (parallel): fetch and transform every referenced record
  // exactly once into a dense shared cache. Series ids are dense
  // (0..relation.size()-1), so a vector indexes the cache and each slot is
  // written by exactly one worker.
  const uint64_t relation_size = relation.size();
  std::vector<uint8_t> referenced(relation_size, 0);
  for (const auto& [a, b] : candidates) {
    if (a >= relation_size || b >= relation_size) {
      // The sequential path would surface this as NotFound from
      // relation.Get; the dense cache must not turn it into an
      // out-of-bounds write.
      return Status::Corruption(
          "join candidate id out of range: index and relation disagree");
    }
    referenced[a] = 1;
    referenced[b] = 1;
  }
  std::vector<SeriesId> unique_ids;
  for (SeriesId id = 0; id < relation_size; ++id) {
    if (referenced[id] != 0) unique_ids.push_back(id);
  }

  std::vector<ComplexVec> spectra(relation_size);
  std::vector<Status> fetch_status(unique_ids.size());
  const auto fetch = [&](size_t i) {
    const SeriesId id = unique_ids[i];
    Result<SeriesRecord> rec = relation.Get(id);
    if (!rec.ok()) {
      fetch_status[i] = rec.status();
      return;
    }
    spectra[id] = transform.has_value() ? transform->spectral.Apply(rec->dft)
                                        : std::move(rec->dft);
  };
  pool->ParallelFor(unique_ids.size(), fetch, threads);
  for (const Status& s : fetch_status) {
    TSQ_RETURN_IF_ERROR(s);
  }

  // Phase 2b (parallel): split the candidate pairs into contiguous
  // partitions and verify each on a worker against the now-immutable
  // shared cache. Partition answers land in per-partition vectors.
  const size_t num_partitions =
      std::max<size_t>(1, std::min(candidates.size(), pool->size() * 8));
  const size_t partition_size =
      (candidates.size() + num_partitions - 1) / num_partitions;
  std::vector<std::vector<JoinPair>> partition_out(num_partitions);
  const auto verify = [&](size_t p) {
    const size_t begin = p * partition_size;
    const size_t end = std::min(begin + partition_size, candidates.size());
    for (size_t i = begin; i < end; ++i) {
      const auto& [a, b] = candidates[i];
      const double d = cvec::Distance(spectra[a], spectra[b]);
      if (d <= epsilon) partition_out[p].push_back(JoinPair{a, b, d});
    }
  };
  pool->ParallelFor(num_partitions, verify, threads);

  // Phase 3 (sequential): merge in partition order. Partitions tile the
  // candidate sequence, so the concatenation verifies it in order —
  // deterministic for any thread count.
  std::vector<JoinPair> out;
  size_t total = 0;
  for (const std::vector<JoinPair>& part : partition_out) {
    total += part.size();
  }
  out.reserve(total);
  for (std::vector<JoinPair>& part : partition_out) {
    out.insert(out.end(), part.begin(), part.end());
  }

  if (stats != nullptr) {
    stats->candidates += candidates.size();
    stats->verified += unique_ids.size();
    stats->answers += out.size();
    const obs::IndexCounters work = tally.Load();
    stats->nodes_visited += work.nodes_visited;
    stats->rect_transforms += work.rect_transforms;
    stats->disk_reads += work.disk_reads;
    stats->elapsed_ms += watch.ElapsedMillis();
  }
  return out;
}

}  // namespace engine
}  // namespace tsq
