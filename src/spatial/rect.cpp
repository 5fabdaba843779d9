// Copyright (c) 2026 The tsq Authors.

#include "spatial/rect.h"

#include <algorithm>
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
