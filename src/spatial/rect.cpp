// Copyright (c) 2026 The tsq Authors.

#include "spatial/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace tsq {
namespace spatial {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Rect Rect::FromPoint(const Point& p) { return Rect(p, p); }

Rect::Rect(Point lo, Point hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  TSQ_CHECK_MSG(lo_.size() == hi_.size(), "corner dims differ: %zu vs %zu",
                lo_.size(), hi_.size());
  for (size_t d = 0; d < lo_.size(); ++d) {
    TSQ_CHECK_MSG(lo_[d] <= hi_[d], "inverted interval in dim %zu", d);
  }
}

Rect Rect::Empty(size_t dims) {
  Rect r;
  r.lo_.assign(dims, kInf);
  r.hi_.assign(dims, -kInf);
  return r;
}

bool Rect::IsEmpty() const {
  if (lo_.empty()) return true;
  for (size_t d = 0; d < dims(); ++d) {
    if (lo_[d] > hi_[d]) return true;
  }
  return false;
}

double Rect::Extent(size_t d) const {
  TSQ_DCHECK(d < dims());
  return std::max(0.0, hi_[d] - lo_[d]);
}

double Rect::Area() const {
  if (IsEmpty()) return 0.0;
  double area = 1.0;
  for (size_t d = 0; d < dims(); ++d) area *= Extent(d);
  return area;
}

double Rect::Margin() const {
  if (IsEmpty()) return 0.0;
  double margin = 0.0;
  for (size_t d = 0; d < dims(); ++d) margin += Extent(d);
  return margin;
}

Point Rect::Center() const {
  Point c(dims());
  for (size_t d = 0; d < dims(); ++d) c[d] = 0.5 * (lo_[d] + hi_[d]);
  return c;
}

bool Rect::Intersects(const Rect& other) const {
  TSQ_DCHECK(dims() == other.dims());
  for (size_t d = 0; d < dims(); ++d) {
    if (lo_[d] > other.hi_[d] || other.lo_[d] > hi_[d]) return false;
  }
  return true;
}

bool Rect::Contains(const Point& p) const {
  TSQ_DCHECK(dims() == p.size());
  for (size_t d = 0; d < dims(); ++d) {
    if (p[d] < lo_[d] || p[d] > hi_[d]) return false;
  }
  return true;
}

bool Rect::ContainsRect(const Rect& other) const {
  TSQ_DCHECK(dims() == other.dims());
  for (size_t d = 0; d < dims(); ++d) {
    if (other.lo_[d] < lo_[d] || other.hi_[d] > hi_[d]) return false;
  }
  return true;
}

Rect Rect::UnionWith(const Rect& other) const {
  Rect out = *this;
  out.ExpandToInclude(other);
  return out;
}

void Rect::ExpandToInclude(const Rect& other) {
  TSQ_DCHECK(dims() == other.dims());
  for (size_t d = 0; d < dims(); ++d) {
    lo_[d] = std::min(lo_[d], other.lo_[d]);
    hi_[d] = std::max(hi_[d], other.hi_[d]);
  }
}

void Rect::ExpandToInclude(const Point& p) {
  TSQ_DCHECK(dims() == p.size());
  for (size_t d = 0; d < dims(); ++d) {
    lo_[d] = std::min(lo_[d], p[d]);
    hi_[d] = std::max(hi_[d], p[d]);
  }
}

double Rect::IntersectionArea(const Rect& other) const {
  TSQ_DCHECK(dims() == other.dims());
  double area = 1.0;
  for (size_t d = 0; d < dims(); ++d) {
    const double lo = std::max(lo_[d], other.lo_[d]);
    const double hi = std::min(hi_[d], other.hi_[d]);
    if (lo > hi) return 0.0;
    area *= hi - lo;
  }
  return area;
}

Rect Rect::Grown(double eps) const {
  TSQ_CHECK_MSG(eps >= 0.0, "Grown() requires non-negative eps");
  Rect out = *this;
  for (size_t d = 0; d < out.dims(); ++d) {
    out.lo_[d] -= eps;
    out.hi_[d] += eps;
  }
  return out;
}

std::string Rect::ToString() const {
  std::ostringstream os;
  for (size_t d = 0; d < dims(); ++d) {
    os << (d == 0 ? "" : "x") << "[" << lo_[d] << "," << hi_[d] << "]";
  }
  return os.str();
}

}  // namespace spatial
}  // namespace tsq
