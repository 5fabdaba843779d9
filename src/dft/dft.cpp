// Copyright (c) 2026 The tsq Authors.

#include "dft/dft.h"

#include <bit>
#include <cmath>

#include "common/macros.h"
#include "dft/fft.h"
#include "simd/simd.h"

namespace tsq {
namespace dft {

namespace {

// Applies the 1/sqrt(n) projection scaling through the kernel layer.
// std::complex<double> is two packed doubles, and multiplying a complex
// by a real scalar is an independent multiply per component, so the 2n
// underlying doubles scale elementwise.
void ScaleSpectrum(ComplexVec* X, double scale) {
  simd::Kernels().scale_inplace(reinterpret_cast<double*>(X->data()),
                                2 * X->size(), scale);
}

}  // namespace

ComplexVec Forward(const RealVec& x) {
  ComplexVec widened(x.size());
  simd::Kernels().widen_to_complex(
      x.data(), x.size(), reinterpret_cast<double*>(widened.data()));
  return Forward(widened);
}

ComplexVec Forward(const ComplexVec& x) {
  ComplexVec X = x;
  fft::Transform(&X, /*inverse=*/false);
  const double scale = 1.0 / std::sqrt(static_cast<double>(x.empty() ? 1 : x.size()));
  ScaleSpectrum(&X, scale);
  return X;
}

// ForwardErrorBound's derivation. u = 2^-53; a complex product is within
// sqrt(5)u of exact (normwise; 2u with an FMA), a complex sum within u,
// and the angles fed to cos/sin are within a few u, so every twiddle
// fft.cpp computes directly is within 22u of exact. Each bound below
// assumes its first-order terms stay under 1% (n below about 1e11), which
// the factors 1.01 absorb.
//
// Radix-2 (n = 2^L). The twiddle recurrence w <- w * wlen starts from a
// wlen within 9.2u and gains at most 11.5u per step, so every twiddle of
// a len-point block is within 1.01 * (len/2) * 11.5u <= 5.8nu. One
// butterfly stage is sqrt(2) times a unitary map; computed, it adds an
// error of norm at most sqrt(2) * g * ||input|| with g = 5.8nu + 4.4u
// (twiddle, product and sum). Over L stages the error is at most
// L * g * 1.01 * sqrt(n) * ||x||, and the final 1/sqrt(n) scaling adds
// 3.1u: ||error|| <= (1.01 L g + 3.1u) ||x|| <= 7 (n+1)(L+1) u ||x||.
// The unscaled kernel on m points therefore errs by at most
// rho_m * sqrt(m) * ||v|| with rho_m = 6 (m+1) log2(m) u.
//
// Bluestein (other n, m = 2^M >= 2n - 1). With a = x * chirp,
// b = conj(chirp) wrapped, A = R_m(a), B = R_m(b): the computed A is
// within sqrt(m) ||x|| (1.01 rho_m + 24.3u) and B within
// sqrt(m (2n-1)) (1.01 rho_m + 22u); |A_i| <= ||a||_1 <= sqrt(n) ||x|| and
// |B_i| <= ||b||_1 = 2n - 1. So the product A * B is within
// sqrt(m) ||x|| n (3.5 rho_m + 85u), the inverse kernel adds
// rho_m * m * 2.02 n ||x||, and dividing by m, the chirp and the
// 1/sqrt(n) scaling leave ||error|| <= sqrt(n) (5.6 rho_m + 115u) ||x||
// <= 35 sqrt(n) (m+1)(M+1) u ||x||.
double ForwardErrorBound(size_t n) {
  if (n <= 1) return 0.0;  // Forward copies and scales by exactly 1
  constexpr double kUnitRoundoff = 0x1p-53;
  const auto log2 = [](size_t p) {
    return static_cast<double>(std::countr_zero(p));
  };
  const double dn = static_cast<double>(n);
  if (fft::IsPowerOfTwo(n)) {
    return 7.0 * (dn + 1.0) * (log2(n) + 1.0) * kUnitRoundoff;
  }
  const size_t m = fft::NextPowerOfTwo(2 * n - 1);
  return 35.0 * std::sqrt(dn) * (static_cast<double>(m) + 1.0) *
         (log2(m) + 1.0) * kUnitRoundoff;
}

ComplexVec Inverse(const ComplexVec& X) {
  ComplexVec x = X;
  fft::Transform(&x, /*inverse=*/true);
  const double scale = 1.0 / std::sqrt(static_cast<double>(X.empty() ? 1 : X.size()));
  ScaleSpectrum(&x, scale);
  return x;
}

RealVec InverseReal(const ComplexVec& X, double tol) {
  ComplexVec x = Inverse(X);
  TSQ_DCHECK(cvec::MaxImagAbs(x) <= tol * (1.0 + std::sqrt(cvec::Energy(x))));
  TSQ_UNUSED(tol);
  return cvec::RealPart(x);
}

RealVec CircularConvolution(const RealVec& x, const RealVec& y) {
  TSQ_CHECK_MSG(x.size() == y.size(),
                "circular convolution requires equal lengths (%zu vs %zu)",
                x.size(), y.size());
  if (x.empty()) return {};
  // conv = InverseUnscaled(DFTUnscaled(x) * DFTUnscaled(y)) / n.
  ComplexVec X = cvec::FromReal(x);
  ComplexVec Y = cvec::FromReal(y);
  fft::Transform(&X, /*inverse=*/false);
  fft::Transform(&Y, /*inverse=*/false);
  for (size_t i = 0; i < X.size(); ++i) X[i] *= Y[i];
  fft::Transform(&X, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(x.size());
  RealVec out(x.size());
  for (size_t i = 0; i < x.size(); ++i) out[i] = X[i].real() * inv_n;
  return out;
}

RealVec CircularConvolutionNaive(const RealVec& x, const RealVec& y) {
  TSQ_CHECK(x.size() == y.size());
  const size_t n = x.size();
  RealVec out(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      // i - k modulo n, kept non-negative.
      const size_t idx = (i + n - (k % n)) % n;
      acc += x[k] * y[idx];
    }
    out[i] = acc;
  }
  return out;
}

ComplexVec TransferFunction(const RealVec& kernel) {
  ComplexVec a = cvec::FromReal(kernel);
  fft::Transform(&a, /*inverse=*/false);  // unscaled on purpose
  return a;
}

ComplexVec Truncate(const ComplexVec& X, size_t k) {
  TSQ_CHECK_MSG(k <= X.size(), "Truncate: k=%zu > n=%zu", k, X.size());
  return ComplexVec(X.begin(), X.begin() + static_cast<ptrdiff_t>(k));
}

double ParsevalGap(const RealVec& x) {
  return std::abs(cvec::Energy(x) - cvec::Energy(Forward(x)));
}

double EnergyConcentration(const ComplexVec& X, size_t k) {
  TSQ_CHECK(k <= X.size());
  const double total = cvec::Energy(X);
  if (total == 0.0) return 1.0;
  double head = 0.0;
  for (size_t i = 0; i < k; ++i) head += std::norm(X[i]);
  return head / total;
}

}  // namespace dft
}  // namespace tsq
