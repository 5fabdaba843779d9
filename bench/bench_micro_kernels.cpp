// Copyright (c) 2026 The tsq Authors.
//
// Micro-benchmarks (google-benchmark) for the computational kernels: FFT
// variants, unitary DFT, circular convolution, distance kernels (full,
// early-abandon, fused transform+distance), feature extraction and moving
// averages. These quantify the constant factors behind the paper's curves
// (e.g. the CPU-only gap in Figures 8/9 is the rect-transform + complex
// multiply cost measured here).
//
// Before the google-benchmark registrations run, main() executes a
// deterministic per-level sweep of the src/simd/ kernel table over
// lengths {64, 256, 1024, 8192} and drops BENCH_kernels.json: ns/call
// and speedup-vs-scalar for every compiled dispatch level (medians of
// five repetitions that interleave the levels, with every repetition's
// value), plus a bitwise answer checksum per (kernel, length, level)
// cell. A checksum mismatch between levels aborts the binary — the
// determinism contract is enforced on the benchmark's own workload, not
// just in unit tests.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/feature.h"
#include "dft/dft.h"
#include "dft/fft.h"
#include "series/distance.h"
#include "series/moving_average.h"
#include "series/normal_form.h"
#include "core/seq_scan.h"
#include "simd/simd.h"
#include "transform/builtin.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

RealVec MakeSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  return workload::RandomWalkSeries(&rng, n, {});
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

ComplexVec MakeComplex(size_t n, uint64_t seed) {
  Rng rng(seed);
  ComplexVec out(n);
  for (Complex& c : out) {
    c = Complex(rng.Uniform(-1, 1), rng.Uniform(-1, 1));
  }
  return out;
}

void BM_FftRadix2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ComplexVec x = MakeComplex(n, 1);
  for (auto _ : state) {
    ComplexVec y = x;
    fft::TransformRadix2(&y, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FftRadix2)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_FftBluestein(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ComplexVec x = MakeComplex(n, 2);
  for (auto _ : state) {
    ComplexVec y = x;
    fft::TransformBluestein(&y, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FftBluestein)->Arg(63)->Arg(127)->Arg(1000)->Arg(1023);

void BM_UnitaryDftRealInput(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RealVec x = MakeSeries(n, 3);
  for (auto _ : state) {
    ComplexVec X = dft::Forward(x);
    benchmark::DoNotOptimize(X.data());
  }
}
BENCHMARK(BM_UnitaryDftRealInput)->Arg(128)->Arg(1024);

void BM_CircularConvolution(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RealVec x = MakeSeries(n, 4);
  RealVec kernel = MovingAverageKernel(n, 20);
  for (auto _ : state) {
    RealVec y = dft::CircularConvolution(x, kernel);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_CircularConvolution)->Arg(128)->Arg(1024);

void BM_EuclideanDistance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RealVec x = MakeSeries(n, 5);
  RealVec y = MakeSeries(n, 6);
  // Per-iteration answer checksum: every iteration must reproduce the
  // same bits, so the optimizer cannot skip the verified arithmetic and
  // a nondeterministic kernel fails the bench instead of polluting it.
  const double first = EuclideanDistance(x, y);
  double acc = 0.0;
  for (auto _ : state) {
    const double d = EuclideanDistance(x, y);
    if (Bits(d) != Bits(first)) state.SkipWithError("answer drift");
    acc += d;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EuclideanDistance)->Arg(128)->Arg(1024);

void BM_EarlyAbandonDistanceFrequencyDomain(benchmark::State& state) {
  // The paper's scan trick: frequency-domain vectors abandon after a few
  // coefficients because the energy is concentrated up front.
  const size_t n = static_cast<size_t>(state.range(0));
  ComplexVec x = dft::Forward(MakeSeries(n, 7));
  ComplexVec y = dft::Forward(MakeSeries(n, 8));
  const double first = EarlyAbandonEuclidean(x, y, 1.0).value_or(-1.0);
  double acc = 0.0;
  for (auto _ : state) {
    const double d = EarlyAbandonEuclidean(x, y, 1.0).value_or(-1.0);
    if (Bits(d) != Bits(first)) state.SkipWithError("answer drift");
    acc += d;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EarlyAbandonDistanceFrequencyDomain)->Arg(128)->Arg(1024);

void BM_TransformedPairDistanceFused(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ComplexVec x = dft::Forward(MakeSeries(n, 9));
  ComplexVec y = dft::Forward(MakeSeries(n, 10));
  LinearTransform t = transforms::MovingAverage(n, 20);
  const double first = EarlyAbandonPairDistance(x, y, &t, 1.0).value_or(-1.0);
  double acc = 0.0;
  for (auto _ : state) {
    const double d = EarlyAbandonPairDistance(x, y, &t, 1.0).value_or(-1.0);
    if (Bits(d) != Bits(first)) state.SkipWithError("answer drift");
    acc += d;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_TransformedPairDistanceFused)->Arg(128)->Arg(1024);

void BM_TransformApplyFull(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ComplexVec x = dft::Forward(MakeSeries(n, 11));
  LinearTransform t = transforms::MovingAverage(n, 20);
  for (auto _ : state) {
    ComplexVec y = t.Apply(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_TransformApplyFull)->Arg(128)->Arg(1024);

void BM_NormalForm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RealVec x = MakeSeries(n, 12);
  for (auto _ : state) {
    NormalForm nf = ToNormalForm(x);
    benchmark::DoNotOptimize(nf.normalized.data());
  }
}
BENCHMARK(BM_NormalForm)->Arg(128)->Arg(1024);

void BM_CircularMovingAverage(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  RealVec x = MakeSeries(n, 13);
  for (auto _ : state) {
    RealVec y = CircularMovingAverage(x, 20);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_CircularMovingAverage)->Arg(128)->Arg(1024);

void BM_FeatureExtraction(benchmark::State& state) {
  // The full ingest pipeline per series: normal form + DFT + point.
  const size_t n = static_cast<size_t>(state.range(0));
  RealVec x = MakeSeries(n, 14);
  FeatureExtractor extractor(FeatureLayout::Paper());
  for (auto _ : state) {
    SeriesFeatures f = extractor.Extract(x);
    spatial::Point p = extractor.ToPoint(f);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(128)->Arg(1024);

// ---------------------------------------------------------------------------
// Deterministic per-level kernel sweep -> BENCH_kernels.json
// ---------------------------------------------------------------------------

/// One timed cell: mean ns per call and the bitwise answer checksum
/// accumulated across every iteration (identical inputs each iteration,
/// so the checksum doubles as a per-iteration answer check once compared
/// across dispatch levels).
struct Cell {
  double ns_per_call = 0.0;
  double checksum = 0.0;
};

template <typename Fn>
Cell TimeKernel(size_t iters, Fn&& call) {
  for (size_t i = 0; i < 3; ++i) call(i);  // Warm caches and pages.
  Cell cell;
  Stopwatch watch;
  for (size_t i = 0; i < iters; ++i) cell.checksum += call(i);
  cell.ns_per_call = static_cast<double>(watch.ElapsedNanos()) /
                     static_cast<double>(iters);
  return cell;
}

/// Sweeps every compiled dispatch level over the kernel table for lengths
/// {64, 256, 1024, 8192}, enforces bitwise cross-level checksum equality,
/// prints the speedup table and writes BENCH_kernels.json. Each (kernel,
/// n) cell runs bench::kCellReps repetitions, and each repetition times
/// every level back to back, so a shift in the host's speed over seconds
/// reaches all levels alike; a level's speedup is the median of its
/// per-repetition ratios to scalar, printed with their min-max.
void KernelSweep() {
  bench::Banner(
      "src/simd kernel sweep: ns/call per dispatch level",
      "Squared-distance (full + early-abandon), batched rect MINDIST,\n"
      "moments and DFT-projection elementwise kernels; each (kernel, n)\n"
      "cell must produce bit-identical checksums at every level.");

  const simd::Level best = simd::BestSupportedLevel();
  std::printf("  dispatched level on this host: %s\n\n",
              simd::LevelName(simd::ActiveLevel()));

  bench::Json doc = bench::Json::Object();
  doc["bench"] = bench::Json::Str("kernels");
  bench::Json host = bench::Json::Object();
  host["best_level"] = bench::Json::Str(simd::LevelName(best));
  host["dispatched_level"] =
      bench::Json::Str(simd::LevelName(simd::ActiveLevel()));
  host["smoke_divisor"] = bench::Json::Int(bench::SmokeDivisor());
  doc["host"] = std::move(host);

  bench::Table table(
      {"kernel", "n", "level", "ns/call", "speedup", "speedup min-max"});
  bench::Json rows = bench::Json::Array();
  double speedup_1024_distance = 0.0;

  for (const size_t n : {64u, 256u, 1024u, 8192u}) {
    Rng rng(20260808 + n);
    RealVec x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-1.0, 1.0);
      y[i] = rng.Uniform(-1.0, 1.0);
    }
    // Batched MINDIST works in feature space: paper-shaped 6-d rects,
    // `n` of them per call (the sweep variable is the batch size).
    const size_t kDims = 6;
    std::vector<double> rect_data(2 * kDims * n);
    std::vector<const double*> los(n), his(n);
    for (size_t r = 0; r < n; ++r) {
      double* lo = &rect_data[2 * kDims * r];
      double* hi = lo + kDims;
      for (size_t d = 0; d < kDims; ++d) {
        const double a = rng.Uniform(-1.0, 1.0);
        const double b = rng.Uniform(-1.0, 1.0);
        lo[d] = a < b ? a : b;
        hi[d] = a < b ? b : a;
      }
      los[r] = lo;
      his[r] = hi;
    }
    std::vector<double> mindist_out(n);
    std::vector<double> shifted(n);
    std::vector<double> widened(2 * n);

    const simd::KernelTable& scalar = simd::KernelsFor(simd::Level::kScalar);
    const double full = scalar.sum_squared_diff(x.data(), y.data(), n);
    const double ea_limit = 0.25 * full;  // Abandons partway through.
    const double mean = scalar.sum(x.data(), n) / static_cast<double>(n);

    const size_t iters =
        std::max<size_t>(bench::Scaled(67'108'864 / n, 64), 64);

    struct Kernel {
      const char* name;
      std::function<double(const simd::KernelTable&, size_t)> call;
    };
    const Kernel kernels[] = {
        {"sum_squared_diff",
         [&](const simd::KernelTable& k, size_t) {
           return k.sum_squared_diff(x.data(), y.data(), n);
         }},
        {"sum_squared_diff_ea",
         [&](const simd::KernelTable& k, size_t) {
           return k.sum_squared_diff_ea(x.data(), y.data(), n, ea_limit);
         }},
        {"min_dist_squared_batch",
         [&](const simd::KernelTable& k, size_t i) {
           k.min_dist_squared_batch(x.data(), los.data(), his.data(), n,
                                    kDims, mindist_out.data());
           return mindist_out[i & (n - 1)] + mindist_out[n - 1];
         }},
        {"moments",
         [&](const simd::KernelTable& k, size_t) {
           return k.sum(x.data(), n) +
                  k.centered_sum_squares(x.data(), n, mean);
         }},
        {"scale_shift",
         [&](const simd::KernelTable& k, size_t i) {
           k.scale_shift(x.data(), n, mean, 3.25, shifted.data());
           return shifted[i & (n - 1)] + shifted[n - 1];
         }},
        {"widen_to_complex",
         [&](const simd::KernelTable& k, size_t i) {
           k.widen_to_complex(x.data(), n, widened.data());
           return widened[(2 * i) & (2 * n - 1)] + widened[2 * n - 2];
         }},
    };

    const int levels = static_cast<int>(best) + 1;
    for (const Kernel& kernel : kernels) {
      std::vector<std::vector<double>> ns_runs(levels);
      std::vector<std::vector<double>> speedup_runs(levels);
      std::vector<double> checksums(levels);
      for (int rep = 0; rep < bench::kCellReps; ++rep) {
        double scalar_ns = 0.0;
        for (int l = 0; l < levels; ++l) {
          const simd::KernelTable& k =
              simd::KernelsFor(static_cast<simd::Level>(l));
          const Cell cell =
              TimeKernel(iters, [&](size_t i) { return kernel.call(k, i); });
          if (l == 0) scalar_ns = cell.ns_per_call;  // level 0 is scalar
          checksums[l] = cell.checksum;
          TSQ_CHECK_MSG(Bits(cell.checksum) == Bits(checksums[0]),
                        "cross-level checksum mismatch: the determinism "
                        "contract is broken");
          ns_runs[l].push_back(cell.ns_per_call);
          speedup_runs[l].push_back(scalar_ns / cell.ns_per_call);
        }
      }
      for (int l = 0; l < levels; ++l) {
        const simd::Level level = static_cast<simd::Level>(l);
        const double ns = bench::Median(ns_runs[l]);
        const bench::CellTiming speedup = bench::Summarize(speedup_runs[l]);
        if (std::string(kernel.name) == "sum_squared_diff" && n == 1024 &&
            level == simd::ActiveLevel()) {
          speedup_1024_distance = speedup.median_ms;
        }
        table.AddRow({kernel.name, std::to_string(n),
                      simd::LevelName(level), bench::Table::Num(ns, 1),
                      bench::Table::Num(speedup.median_ms, 2) + "x",
                      speedup.Spread(2)});
        bench::Json row = bench::Json::Object();
        row["kernel"] = bench::Json::Str(kernel.name);
        row["n"] = bench::Json::Int(n);
        row["level"] = bench::Json::Str(simd::LevelName(level));
        row["ns_per_call"] = bench::Json::Num(ns);
        row["speedup_vs_scalar"] = bench::Json::Num(speedup.median_ms);
        row["speedup_min"] = bench::Json::Num(speedup.min_ms);
        row["speedup_max"] = bench::Json::Num(speedup.max_ms);
        bench::Json ns_json = bench::Json::Array();
        bench::Json speedup_json = bench::Json::Array();
        for (int rep = 0; rep < bench::kCellReps; ++rep) {
          ns_json.Append(bench::Json::Num(ns_runs[l][rep]));
          speedup_json.Append(bench::Json::Num(speedup_runs[l][rep]));
        }
        row["ns_per_call_runs"] = std::move(ns_json);
        row["speedup_runs"] = std::move(speedup_json);
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016" PRIx64, Bits(checksums[l]));
        row["checksum"] = bench::Json::Str(hex);
        rows.Append(std::move(row));
      }
    }
  }
  table.Print();
  doc["rows"] = std::move(rows);
  // The headline number the perf trajectory tracks: dispatched-vs-scalar
  // on the 1024-length distance kernel (the kNN verify hot loop).
  doc["speedup_1024_distance"] = bench::Json::Num(speedup_1024_distance);
  std::printf("\n  dispatched speedup on 1024-length distance kernel: %.2fx\n",
              speedup_1024_distance);

  const char* out_path = "BENCH_kernels.json";
  if (doc.WriteFile(out_path)) {
    std::printf("  wrote %s\n\n", out_path);
  } else {
    std::printf("  WARNING: could not write %s\n\n", out_path);
  }
}

}  // namespace
}  // namespace tsq

// Like BENCHMARK_MAIN(), but first runs the deterministic kernel sweep
// (which writes BENCH_kernels.json and enforces cross-level bitwise
// equality on its own workload) before the google-benchmark
// registrations.
int main(int argc, char** argv) {
  tsq::KernelSweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
