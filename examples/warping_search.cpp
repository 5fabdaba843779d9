// Copyright (c) 2026 The tsq Authors.
//
// Time-warping search (the paper's Example 1.2 and Appendix A), plus the
// cost-bounded similarity distance of Eq. 10.
//
// Scenario: the database stores weekly-sampled series; a probe series was
// sampled twice as often (or: we want to match series that unfold at half
// speed). The Appendix A transformation builds the first k Fourier
// coefficients of the m-fold time-stretched series directly from the
// original coefficients — no resampling of the data needed.
//
// Build & run:  ./build/examples/warping_search

#include <cstdio>
#include <filesystem>

#include "tsq.h"

int main() {
  using namespace tsq;

  const size_t kShortLen = 64;   // stored series length
  const size_t kWarp = 2;        // stretch factor
  const size_t kLongLen = kShortLen * kWarp;

  // --- database of *stretched* series --------------------------------------
  // We index the stretched versions (length 128); probes are short series
  // (length 64) whose warped spectrum the Appendix A transform predicts.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tsq_warp").string();
  std::filesystem::create_directories(dir);
  DatabaseOptions options;
  options.directory = dir;
  options.name = "warp";
  auto db = Database::Create(options).value();

  Rng rng(99);
  std::vector<RealVec> originals;
  for (int i = 0; i < 200; ++i) {
    RealVec s = workload::RandomWalkSeries(&rng, kShortLen, {});
    originals.push_back(s);
    char name[16];
    std::snprintf(name, sizeof(name), "slow%03d", i);
    // The database holds the slow (stretched) versions.
    db->Insert(name, StretchTime(s, kWarp)).value();
  }
  TSQ_CHECK(db->BuildIndex().ok());
  std::printf("database: %llu stretched series of length %zu\n",
              static_cast<unsigned long long>(db->size()), kLongLen);

  // --- probe with a fast (short) series -------------------------------------
  // Probe = original #42 plus a little noise. Its 2x-stretched version
  // should be the nearest stored series — found by stretching the probe in
  // the time domain (cheap here, but the point is the spectra match the
  // Appendix A prediction).
  RealVec probe = originals[42];
  for (double& v : probe) v += rng.Uniform(-0.3, 0.3);

  // A single query is a one-element batch, run on this thread.
  const auto matches =
      engine::SingleResult(
          db->RunBatch({engine::BatchQuery::Range(StretchTime(probe, kWarp),
                                                  /*epsilon=*/1.5)}))
          .value()
          .matches;
  std::printf("\nrange query with the stretched probe (eps 1.5):\n");
  for (const Match& m : matches) {
    std::printf("  %-8s distance %.3f%s\n", m.name.c_str(), m.distance,
                m.name == "slow042" ? "   <- the right series" : "");
  }

  // --- the Appendix A identity, verified on the probe ----------------------
  // warp-transforming the short probe's spectrum == spectrum of the
  // stretched probe (on the first k coefficients).
  const size_t k = 8;
  const LinearTransform warp = transforms::TimeWarp(
      kShortLen, kWarp, k, transforms::WarpConvention::kUnitary);
  ComplexVec predicted =
      dft::Truncate(warp.Apply(dft::Forward(probe)), k);
  ComplexVec actual =
      dft::Truncate(dft::Forward(StretchTime(probe, kWarp)), k);
  std::printf(
      "\nAppendix A check: || predicted - actual || over first %zu "
      "coefficients = %.2e (machine precision)\n",
      k, cvec::Distance(predicted, actual));

  // --- Eq. 10: cost-bounded similarity --------------------------------------
  // "Is the probe similar to series #17?" — directly, after smoothing, or
  // after reversing, each at a cost; Eq. 10 takes the cheapest explanation.
  ComplexVec x = dft::Forward(probe);
  ComplexVec y = dft::Forward(originals[17]);
  std::vector<LinearTransform> toolbox = {
      transforms::MovingAverage(kShortLen, 8, /*cost=*/1.0),
      transforms::Reverse(kShortLen, /*cost=*/2.0),
  };
  auto verdict = CostedDistance(x, y, toolbox).value();
  std::printf(
      "\nEq. 10 costed distance probe vs slow017: %.3f "
      "(transform cost %.1f; applied to x: %zu ops, to y: %zu ops)\n",
      verdict.distance, verdict.transform_cost, verdict.applied_to_x.size(),
      verdict.applied_to_y.size());
  for (const std::string& op : verdict.applied_to_x) {
    std::printf("  x <- %s\n", op.c_str());
  }
  for (const std::string& op : verdict.applied_to_y) {
    std::printf("  y <- %s\n", op.c_str());
  }
  return 0;
}
