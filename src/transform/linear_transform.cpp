// Copyright (c) 2026 The tsq Authors.

#include "transform/linear_transform.h"

#include <cmath>

#include "common/macros.h"

namespace tsq {

LinearTransform::LinearTransform(ComplexVec a, ComplexVec b, double cost,
                                 std::string name)
    : a_(std::move(a)), b_(std::move(b)), cost_(cost), name_(std::move(name)) {
  TSQ_CHECK_MSG(a_.size() == b_.size(),
                "transform vectors differ in length: %zu vs %zu", a_.size(),
                b_.size());
}

LinearTransform LinearTransform::Identity(size_t n) {
  return LinearTransform(ComplexVec(n, Complex(1.0, 0.0)),
                         ComplexVec(n, Complex(0.0, 0.0)), 0.0, "identity");
}

ComplexVec LinearTransform::Apply(const ComplexVec& x) const {
  ComplexVec out;
  ApplyInto(x, &out);
  return out;
}

void LinearTransform::ApplyInto(const ComplexVec& x, ComplexVec* out) const {
  TSQ_CHECK_MSG(x.size() == size(), "Apply: length %zu != transform %zu",
                x.size(), size());
  out->resize(x.size());
  for (size_t f = 0; f < x.size(); ++f) (*out)[f] = a_[f] * x[f] + b_[f];
}

LinearTransform LinearTransform::Compose(const LinearTransform& inner) const {
  TSQ_CHECK_MSG(size() == inner.size(),
                "Compose: lengths differ (%zu vs %zu)", size(), inner.size());
  ComplexVec a(size());
  ComplexVec b(size());
  for (size_t f = 0; f < size(); ++f) {
    a[f] = a_[f] * inner.a_[f];
    b[f] = a_[f] * inner.b_[f] + b_[f];
  }
  std::string composed_name = name_;
  if (!inner.name_.empty()) {
    composed_name += composed_name.empty() ? inner.name_ : "∘" + inner.name_;
  }
  return LinearTransform(std::move(a), std::move(b), cost_ + inner.cost_,
                         std::move(composed_name));
}

bool LinearTransform::IsIdentity(double tol) const {
  for (size_t f = 0; f < size(); ++f) {
    if (std::abs(a_[f].real() - 1.0) > tol || std::abs(a_[f].imag()) > tol) {
      return false;
    }
    if (std::abs(b_[f].real()) > tol || std::abs(b_[f].imag()) > tol) {
      return false;
    }
  }
  return true;
}

bool LinearTransform::IsSafeRect(double tol) const {
  for (const Complex& c : a_) {
    if (std::abs(c.imag()) > tol) return false;
  }
  return true;
}

bool LinearTransform::IsSafePolar(double tol) const {
  for (const Complex& c : b_) {
    if (std::abs(c) > tol) return false;
  }
  return true;
}

}  // namespace tsq
