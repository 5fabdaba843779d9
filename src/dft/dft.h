// Copyright (c) 2026 The tsq Authors.
//
// The paper's DFT layer (Sec. 1.1): the unitary transform with 1/sqrt(n) on
// both directions (Eq. 1 and 2), signal energy (Eq. 3), circular
// convolution (Eq. 4), and the convolution-multiplication bridge used to
// push filters such as moving average into the frequency domain (Eq. 6,
// Sec. 3.2).
//
// Normalization note. With the unitary convention, Parseval (Eq. 7) holds
// exactly, so Euclidean distances transfer between domains (Eq. 8) — this is
// what the k-index's no-false-dismissal argument (Lemma 1) relies on. The
// price is a factor sqrt(n) in the convolution theorem:
//     Forward(conv(x, y)) = sqrt(n) * Forward(x) ∗ Forward(y).
// The transformation vector `a` for a filter kernel therefore is the
// *unscaled* DFT of the kernel (its transfer function):
//     Forward(conv(x, kernel)) = TransferFunction(kernel) ∗ Forward(x),
// which is exactly the `~M3` the paper multiplies into `~S1` in Sec. 3.2.

#ifndef TSQ_DFT_DFT_H_
#define TSQ_DFT_DFT_H_

#include "dft/complex_vec.h"

namespace tsq {
namespace dft {

/// Unitary forward DFT of a real sequence (paper Eq. 1).
ComplexVec Forward(const RealVec& x);

/// Unitary forward DFT of a complex sequence.
ComplexVec Forward(const ComplexVec& x);

/// An upper bound on ||Forward(x) - DFT(x)||_2 / ||x||_2: the rounding
/// error of Forward as computed against the exact unitary DFT, for any
/// input of length n (derived in dft.cpp from the kernels in fft.cpp).
/// The k-index's conjugate-symmetry radius (core/search_rect.h) adds it
/// to its slack, since a computed spectrum is symmetric only to this.
double ForwardErrorBound(size_t n);

/// Unitary inverse DFT (paper Eq. 2).
ComplexVec Inverse(const ComplexVec& X);

/// Unitary inverse DFT projected to the reals. Aborts (debug) if the
/// imaginary residue exceeds `tol` — callers use this only on spectra of
/// real signals, where any residue is numerical noise.
RealVec InverseReal(const ComplexVec& X, double tol = 1e-6);

/// Circular convolution of two equal-length real sequences (paper Eq. 4),
/// computed in O(n log n) through the frequency domain. Index arithmetic is
/// modulo n.
RealVec CircularConvolution(const RealVec& x, const RealVec& y);

/// Reference O(n^2) circular convolution for validation.
RealVec CircularConvolutionNaive(const RealVec& x, const RealVec& y);

/// The *unscaled* DFT of `kernel` — the filter's transfer function. This is
/// the transformation vector `a` with
///     Forward(conv(x, kernel)) = a ∗ Forward(x)
/// under the unitary convention (see the normalization note above).
ComplexVec TransferFunction(const RealVec& kernel);

/// First k coefficients of X (the k-index feature vector). Requires
/// k <= X.size().
ComplexVec Truncate(const ComplexVec& X, size_t k);

/// |E(x) - E(Forward(x))| — the Parseval residue; ~0 up to rounding. Used
/// by tests and self-checks.
double ParsevalGap(const RealVec& x);

/// Fraction of total signal energy captured by the first k coefficients of
/// X: E(X[0..k)) / E(X). Returns 1.0 for zero-energy signals. This is the
/// quantity behind the paper's "energy concentrates in the first few
/// coefficients" argument for indexing.
double EnergyConcentration(const ComplexVec& X, size_t k);

}  // namespace dft
}  // namespace tsq

#endif  // TSQ_DFT_DFT_H_
