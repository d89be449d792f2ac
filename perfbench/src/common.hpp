// Shared plumbing of the benchmark binary: run options, the result record
// it prints as its last line, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic wall clock in nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable stores (inside the checkout).
  std::string work_dir;
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 11;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `Check` reports a failed output check on stderr;
/// any failed check makes the run incorrect.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(bool ok, const std::string& what);
};

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Safe ratio: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The result as one JSON line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}. Values keep every digit.
std::string ResultJson(const RunResult& result);

/// Removes `dir` and everything under it (no-op when absent).
void RemoveTree(const std::string& dir);

}  // namespace perfbench
