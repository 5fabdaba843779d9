// Copyright (c) 2026 The tsq Authors.

#include "core/subsequence.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dft/dft.h"
#include "series/distance.h"

namespace tsq {

namespace {

constexpr double kPi = std::numbers::pi;

// Resynchronize the sliding DFT with a fresh transform every this many
// steps to keep floating-point drift below verification tolerances.
constexpr size_t kResyncInterval = 512;

uint64_t PackPayload(SeriesId id, size_t offset) {
  return (static_cast<uint64_t>(id) << 32) | static_cast<uint32_t>(offset);
}

void UnpackPayload(uint64_t payload, SeriesId* id, size_t* offset) {
  *id = payload >> 32;
  *offset = static_cast<uint32_t>(payload);
}

/// Feature point (2k real dims) of one window spectrum prefix.
spatial::Point ToFeaturePoint(const ComplexVec& prefix) {
  spatial::Point p;
  p.reserve(2 * prefix.size());
  for (const Complex& c : prefix) {
    p.push_back(c.real());
    p.push_back(c.imag());
  }
  return p;
}

}  // namespace

std::vector<ComplexVec> SlidingWindowSpectra(const RealVec& values,
                                             size_t window,
                                             size_t coefficients) {
  TSQ_CHECK_MSG(window >= 1 && window <= values.size(),
                "window %zu out of range for length %zu", window,
                values.size());
  TSQ_CHECK_MSG(coefficients >= 1 && coefficients <= window,
                "coefficients %zu out of range for window %zu", coefficients,
                window);
  const size_t positions = values.size() - window + 1;
  std::vector<ComplexVec> out;
  out.reserve(positions);

  // Twiddle factors e^{+2 pi j f / w} for the sliding update.
  ComplexVec twiddle(coefficients);
  for (size_t f = 0; f < coefficients; ++f) {
    const double angle = 2.0 * kPi * static_cast<double>(f) /
                         static_cast<double>(window);
    twiddle[f] = Complex(std::cos(angle), std::sin(angle));
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(window));

  ComplexVec current;
  for (size_t pos = 0; pos < positions; ++pos) {
    if (pos % kResyncInterval == 0) {
      // Fresh transform of the window starting at pos.
      RealVec win(values.begin() + static_cast<ptrdiff_t>(pos),
                  values.begin() + static_cast<ptrdiff_t>(pos + window));
      current = dft::Truncate(dft::Forward(win), coefficients);
    } else {
      // Sliding update: drop x_{pos-1}, add x_{pos+w-1}, rotate.
      //   X_f(pos) = (X_f(pos-1) - s*x_{pos-1} + s*x_{pos+w-1}) * e^{2πjf/w}
      const double delta =
          scale * (values[pos + window - 1] - values[pos - 1]);
      for (size_t f = 0; f < coefficients; ++f) {
        current[f] = (current[f] + delta) * twiddle[f];
      }
    }
    out.push_back(current);
  }
  return out;
}

Result<std::unique_ptr<SubsequenceIndex>> SubsequenceIndex::Build(
    const SubsequenceIndexOptions& options,
    const std::vector<TimeSeries>& series) {
  if (options.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  if (options.coefficients < 1 || options.coefficients > options.window) {
    return Status::InvalidArgument("coefficients out of range");
  }
  if (options.trail_piece < 1) {
    return Status::InvalidArgument("trail_piece must be >= 1");
  }
  if (series.size() > uint64_t{UINT32_MAX} + 1) {
    return Status::InvalidArgument("series ids do not fit in 32 bits");
  }
  auto index = std::unique_ptr<SubsequenceIndex>(
      new SubsequenceIndex(options));

  // Cut each series' trail into fixed-length pieces; one MBR per piece.
  std::vector<rtree::Entry> pieces;
  for (SeriesId id = 0; id < series.size(); ++id) {
    const RealVec& values = series[id].values();
    if (values.size() < options.window) {
      return Status::InvalidArgument(
          "series " + std::to_string(id) + " of length " +
          std::to_string(values.size()) + " shorter than the window " +
          std::to_string(options.window));
    }
    const std::vector<ComplexVec> spectra =
        SlidingWindowSpectra(values, options.window, options.coefficients);
    for (size_t start = 0; start < spectra.size();
         start += options.trail_piece) {
      const size_t end = std::min(start + options.trail_piece, spectra.size());
      rtree::Entry piece;
      piece.rect = spatial::Rect::FromPoint(ToFeaturePoint(spectra[start]));
      for (size_t i = start + 1; i < end; ++i) {
        piece.rect.ExpandToInclude(ToFeaturePoint(spectra[i]));
      }
      piece.id = PackPayload(id, start);
      pieces.push_back(std::move(piece));
    }
    index->num_windows_ += spectra.size();
  }

  TSQ_ASSIGN_OR_RETURN(index->file_,
                       PageFile::Create(options.path, options.page_size));
  index->pool_ = std::make_unique<BufferPool>(index->file_.get(),
                                              options.buffer_pool_frames);
  TSQ_ASSIGN_OR_RETURN(index->tree_,
                       rtree::RStarTree::Create(index->pool_.get(),
                                                2 * options.coefficients));
  TSQ_RETURN_IF_ERROR(index->tree_->BulkLoad(std::move(pieces), 0));
  return index;
}

Status SubsequenceIndex::RangeSearch(const RealVec& query, double epsilon,
                                     const SeriesFetcher& fetch,
                                     std::vector<SubsequenceMatch>* out,
                                     QueryStats* stats) const {
  TSQ_CHECK(out != nullptr);
  out->clear();
  if (query.size() != options_.window) {
    return Status::InvalidArgument(
        "query length " + std::to_string(query.size()) +
        " != index window " + std::to_string(options_.window));
  }
  TSQ_RETURN_IF_ERROR(CheckFinite(query, "query"));
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN query threshold");
  }

  // The query's feature point grown by eps per dimension contains the
  // feature points of all qualifying windows (prefix bound).
  const ComplexVec query_prefix =
      dft::Truncate(dft::Forward(query), options_.coefficients);
  const spatial::Rect search_rect =
      spatial::Rect::FromPoint(ToFeaturePoint(query_prefix)).Grown(epsilon);

  std::vector<uint64_t> candidates;
  TSQ_RETURN_IF_ERROR(tree_->Search(
      search_rect, [&candidates](uint64_t payload, const spatial::Rect&) {
        candidates.push_back(payload);
        return true;
      }));
  if (stats != nullptr) stats->candidates += candidates.size();

  // Postprocess: verify every window position of each candidate piece.
  std::sort(candidates.begin(), candidates.end());
  SeriesId cached_id = kInvalidSeriesId;
  RealVec cached_values;
  for (const uint64_t payload : candidates) {
    SeriesId id;
    size_t piece_start;
    UnpackPayload(payload, &id, &piece_start);
    if (id != cached_id) {
      TSQ_ASSIGN_OR_RETURN(cached_values, fetch(id));
      cached_id = id;
      if (stats != nullptr) ++stats->verified;
    }
    const size_t positions = cached_values.size() - options_.window + 1;
    const size_t piece_end =
        std::min(piece_start + options_.trail_piece, positions);
    if (stats != nullptr) stats->records_scanned += piece_end - piece_start;
    for (size_t off = piece_start; off < piece_end; ++off) {
      double acc = 0.0;
      const double limit = epsilon * epsilon;
      bool abandoned = false;
      for (size_t t = 0; t < options_.window; ++t) {
        const double d = cached_values[off + t] - query[t];
        acc += d * d;
        if (acc > limit) {
          abandoned = true;
          break;
        }
      }
      if (!abandoned) {
        out->push_back(SubsequenceMatch{id, off, std::sqrt(acc)});
      }
    }
  }
  std::sort(out->begin(), out->end(),
            [](const SubsequenceMatch& a, const SubsequenceMatch& b) {
              return a.id < b.id || (a.id == b.id && a.offset < b.offset);
            });
  if (stats != nullptr) stats->answers += out->size();
  return Status::OK();
}

Status ScanSubsequences(const std::vector<TimeSeries>& series, size_t window,
                        const RealVec& query, double epsilon,
                        std::vector<SubsequenceMatch>* out) {
  TSQ_CHECK(out != nullptr);
  out->clear();
  if (query.size() != window) {
    return Status::InvalidArgument("query length != window");
  }
  for (SeriesId id = 0; id < series.size(); ++id) {
    const RealVec& values = series[id].values();
    if (values.size() < window) continue;
    for (size_t off = 0; off + window <= values.size(); ++off) {
      double acc = 0.0;
      const double limit = epsilon * epsilon;
      bool abandoned = false;
      for (size_t t = 0; t < window; ++t) {
        const double d = values[off + t] - query[t];
        acc += d * d;
        if (acc > limit) {
          abandoned = true;
          break;
        }
      }
      if (!abandoned) {
        out->push_back(SubsequenceMatch{id, off, std::sqrt(acc)});
      }
    }
  }
  return Status::OK();
}

}  // namespace tsq
