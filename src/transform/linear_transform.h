// Copyright (c) 2026 The tsq Authors.
//
// The paper's transformation language (Sec. 3): a transformation in an
// n-dimensional space is a pair T = (a, b) of n-vectors, applied to a point
// x as a ∗ x + b (elementwise multiply plus translation). Over time series
// the vectors are complex and act on the DFT representation; moving
// average, reversing, shifting, scaling and time warping are all instances
// (Sec. 3.2, Appendix A).
//
// Safety (Definition 1): a transformation is safe in a feature space when
// it maps rectangles to rectangles preserving interior/exterior. The paper
// proves two usable criteria:
//   * Theorem 2: a real, b complex  =>  safe w.r.t. the rectangular
//     representation Srect;
//   * Theorem 3: a complex, b = 0   =>  safe w.r.t. the polar
//     representation Spol.
// IsSafeRect / IsSafePolar test exactly these conditions.

#ifndef TSQ_TRANSFORM_LINEAR_TRANSFORM_H_
#define TSQ_TRANSFORM_LINEAR_TRANSFORM_H_

#include <string>

#include "dft/complex_vec.h"

namespace tsq {

/// An elementwise affine transformation x -> a ∗ x + b over complex
/// vectors, with an associated application cost (Eq. 10) and a display
/// name for query explain output.
class LinearTransform {
 public:
  /// Constructs T = (a, b). Requires a.size() == b.size().
  LinearTransform(ComplexVec a, ComplexVec b, double cost = 0.0,
                  std::string name = "");

  /// The identity transformation of length n (a = 1, b = 0).
  static LinearTransform Identity(size_t n);

  /// Vector length.
  size_t size() const { return a_.size(); }

  const ComplexVec& a() const { return a_; }
  const ComplexVec& b() const { return b_; }

  /// Application cost, used by the cost-bounded distance of Eq. 10.
  double cost() const { return cost_; }
  void set_cost(double cost) { cost_ = cost; }

  /// Human-readable name ("mavg20", "reverse", ...).
  const std::string& name() const { return name_; }

  /// Applies the transformation to a full-length vector: a ∗ x + b.
  /// Requires x.size() == size().
  ComplexVec Apply(const ComplexVec& x) const;

  /// Apply into caller-owned storage (resized to x.size()), so a loop can
  /// reuse one vector. Apply is this plus the allocation: the two share
  /// one loop, so an FMA-contracting -march build cannot round them
  /// differently.
  void ApplyInto(const ComplexVec& x, ComplexVec* out) const;

  /// Composition: (this ∘ inner)(x) = this(inner(x)) = (a1∗a2, a1∗b2 + b1).
  /// Costs add. Requires equal sizes.
  LinearTransform Compose(const LinearTransform& inner) const;

  /// True iff the transformation is the identity (within tol per element).
  bool IsIdentity(double tol = 0.0) const;

  /// Theorem 2 criterion: every a_f is real (|Im(a_f)| <= tol).
  bool IsSafeRect(double tol = 1e-12) const;

  /// Theorem 3 criterion: every b_f is zero (|b_f| <= tol).
  bool IsSafePolar(double tol = 1e-12) const;

 private:
  ComplexVec a_;
  ComplexVec b_;
  double cost_;
  std::string name_;
};

}  // namespace tsq

#endif  // TSQ_TRANSFORM_LINEAR_TRANSFORM_H_
