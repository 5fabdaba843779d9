// Copyright (c) 2026 The tsq Authors.
//
// Shared main() body of the bench_micro_* Google Benchmark binaries.

#ifndef TSQ_BENCH_MICRO_MAIN_H_
#define TSQ_BENCH_MICRO_MAIN_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

namespace tsq {
namespace bench {

/// Like BENCHMARK_MAIN(), but defaults --benchmark_out to `json_name`
/// (format json) when the caller didn't pick an output, so every run —
/// including the CI bench-smoke job, which archives BENCH_*.json — leaves
/// a machine-readable record next to the console table. Explicit
/// --benchmark_out flags win.
inline int RunMicroBenchmarks(int argc, char** argv, const char* json_name) {
  std::vector<char*> args(argv, argv + argc);
  std::string default_out = std::string("--benchmark_out=") + json_name;
  std::string default_fmt = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(default_out.data());
    args.push_back(default_fmt.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace tsq

#endif  // TSQ_BENCH_MICRO_MAIN_H_
