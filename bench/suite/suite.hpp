// Shared declarations of the bench_suite benchmark (see README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace jenga::suite {

/// One named measurement with its unit, as printed and as emitted in JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Workload {
  const char* name;
  const char* shape;  // one line for --list
  harness::RunConfig (*config)(std::uint64_t seed);
  /// Input sets one --trace 0 invocation runs; its simulated metrics are their
  /// median.  More than one narrows the spread of those metrics across seeds.
  std::uint32_t inputs;

  /// Config seed of input set `input` for benchmark seed `seed`: disjoint
  /// ranges per seed, and the seed itself when there is one input set.
  [[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, std::uint32_t input) const {
    return seed * inputs + input;
  }
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Per-layer microbenchmarks (layers.cpp): each times one public entry point
/// of a src/ module and returns host cost per operation.
[[nodiscard]] std::vector<Metric> run_layer_micros(std::uint64_t seed);

}  // namespace jenga::suite
