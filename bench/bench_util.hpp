// Shared helpers for the benchmark harnesses: fixed-width table printing,
// simple wall-clock timing, and the `--json <path>` machine-readable report
// every bench binary supports (bsobs metrics snapshot + bench-specific
// results).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace bsbench {

inline void PrintRule(char c = '-', int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  PrintRule('=');
}

inline void PrintSection(const std::string& title) {
  std::printf("\n");
  PrintRule('-');
  std::printf("%s\n", title.c_str());
  PrintRule('-');
}

/// Wall time of `fn` in seconds.
inline double TimeSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Per-call timing distribution over the repeat samples.
struct CallTiming {
  double min_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
};

/// Nanoseconds per call of `fn`, amortized over `inner_iterations` calls per
/// repeat; min/p50/p90 taken across the repeats (min and the spread together
/// expose scheduler noise that a lone median hides).
inline CallTiming TimeNsPerCallStats(const std::function<void()>& fn,
                                     int inner_iterations = 100, int repeats = 5) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const double sec = TimeSeconds([&]() {
      for (int i = 0; i < inner_iterations; ++i) fn();
    });
    samples.push_back(sec * 1e9 / inner_iterations);
  }
  std::sort(samples.begin(), samples.end());
  CallTiming t;
  t.min_ns = bsutil::Summarize(samples).min;
  t.p50_ns = samples[samples.size() / 2];
  t.p90_ns = samples[(samples.size() * 9) / 10];
  return t;
}

/// Median-of-repeats nanoseconds per call (historical scalar API).
inline double TimeNsPerCall(const std::function<void()>& fn, int inner_iterations = 100,
                            int repeats = 5) {
  return TimeNsPerCallStats(fn, inner_iterations, repeats).p50_ns;
}

// ---------------------------------------------------------------------------
// --json reporting

/// A per-second series as a JSON array: floating-point samples print with
/// %.4g, integral ones in full.
template <typename T>
std::string SeriesJson(const std::vector<T>& series) {
  std::vector<std::string> items;
  for (const T v : series) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4g", static_cast<double>(v));
      items.emplace_back(buf);
    } else {
      items.push_back(std::to_string(v));
    }
  }
  return bsutil::JsonArray(items);
}

/// Strip a `--json <path>` flag from argv (so google-benchmark's own flag
/// parsing never sees it) and return the path, or "" when absent.
inline std::string TakeJsonFlag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--json" && r + 1 < argc) {
      path = argv[++r];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  argv[argc] = nullptr;
  return path;
}

/// BENCH_*.json schema identity. Every report self-describes with
/// `"schema":"bsbench-report"` and a version, and carries the RNG seed the
/// run used; `banscore-lab bench-diff` refuses to compare reports whose
/// schema/version/bench/seed identities disagree, instead of silently
/// diffing apples against oranges. Bump the version whenever the meaning of
/// an existing field changes (adding fields is backward compatible).
inline constexpr const char* kReportSchema = "bsbench-report";
inline constexpr int kReportSchemaVersion = 1;

/// Accumulates bench results as JSON fields and writes one object per file:
///   {"bench":"<name>","schema":"bsbench-report","schema_version":1,
///    "seed":<n>,"results":{...},"metrics":{...}}
/// `metrics` is the bsobs registry snapshot (counters/gauges/histograms).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  /// Record the RNG seed that parameterized the run (emitted as a top-level
  /// field so bench-diff can refuse cross-seed comparisons of deterministic
  /// counters).
  void SetSeed(std::uint64_t seed) {
    seed_ = seed;
    has_seed_ = true;
  }

  /// A number or a string (see bsutil::JsonObject::Add).
  template <typename T>
  void Add(const std::string& key, const T& value) {
    results_.Add(key, value);
  }
  /// `raw` must already be valid JSON (object/array/number).
  void AddRaw(const std::string& key, const std::string& raw) { results_.AddRaw(key, raw); }
  void Add(const std::string& key, const CallTiming& t) {
    results_.AddRaw(key, bsutil::JsonObject()
                             .Add("min_ns", t.min_ns)
                             .Add("p50_ns", t.p50_ns)
                             .Add("p90_ns", t.p90_ns)
                             .Render());
  }

  void AttachRegistry(const bsobs::MetricsRegistry& registry) { registry_ = &registry; }

  /// Render the full report object.
  std::string Render() const {
    bsutil::JsonObject doc;
    doc.Add("bench", bench_name_)
        .Add("schema", kReportSchema)
        .Add("schema_version", kReportSchemaVersion);
    if (has_seed_) doc.Add("seed", seed_);
    doc.AddRaw("results", results_.Render());
    if (registry_ != nullptr) doc.AddRaw("metrics", registry_->RenderJson());
    return doc.Render() + "\n";
  }

  /// Write the report to `path` ("" = no-op success; "-" = stdout). Returns
  /// false (with a logged reason) on I/O failure.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    const std::string body = Render();
    if (path == "-") {
      std::fwrite(body.data(), 1, body.size(), stdout);
      return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      bsutil::Log(bsutil::LogLevel::kError, "bench",
                  "cannot open json report '", path, "'");
      return false;
    }
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    std::printf("\njson report written to %s\n", path.c_str());
    return ok;
  }

 private:
  std::string bench_name_;
  std::uint64_t seed_ = 0;
  bool has_seed_ = false;
  bsutil::JsonObject results_;
  const bsobs::MetricsRegistry* registry_ = nullptr;
};

}  // namespace bsbench
