// bsobs — hot-path profiler: fixed-stage RAII probes over the paths that
// dominate a simulation's wall clock (codec decode, frame processing,
// misbehavior tracking, detect ticks, AddrMan select, event-loop dispatch).
// It is the node's one timing instrument: nothing on the receive path reads
// a clock unless a profiler is attached.
//
// The profiler answers one question per stage: *how many nanoseconds does
// one operation cost, and how is that cost distributed?* It is the
// measurement substrate for the BENCH_*.json perf trajectory — ns/message
// per stage is exactly what bench-diff gates between commits.
//
// Design rules:
//   * Zero overhead when disabled: a ScopedProbe holding a null profiler
//     compiles to two pointer tests and no clock reads. Call sites are
//     branch-free.
//   * Fixed stages, fixed storage: one cache-line-ish block of relaxed
//     atomics per stage (count, total ns, min, max, and log2-ns buckets) —
//     no allocation after construction, safe from any thread, so the TSan
//     sweep can hammer it.
//   * log2-ns buckets span 1 ns .. ~1 s in 40 power-of-two steps; quantiles
//     are interpolated within the winning bucket, which is plenty for a
//     regression gate.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace bsobs {

/// The instrumented stages. Keep in sync with StageName().
enum class HotStage : std::uint8_t {
  kCodecDecode = 0,   // StreamDecoder::Next per frame
  kTrackerUpdate,     // MisbehaviorTracker::Misbehaving
  kDetectTick,        // detect engine verdict computation
  kAddrmanSelect,     // AddrMan::Select / SelectNew
  kDispatch,          // scheduler event-loop callback dispatch
  kFrameProcess,      // Node::ProcessFrame per decoded frame, after on_frame
  kStageCount,
};

constexpr std::size_t kHotStageCount =
    static_cast<std::size_t>(HotStage::kStageCount);

const char* StageName(HotStage stage);

/// Per-stage latency summary, all in nanoseconds.
struct StageStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double ns_per_op = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

class HotpathProfiler {
 public:
  static constexpr std::size_t kNumBuckets = 40;  // log2 ns: 1ns .. ~1.1s

  HotpathProfiler() = default;
  HotpathProfiler(const HotpathProfiler&) = delete;
  HotpathProfiler& operator=(const HotpathProfiler&) = delete;

  /// Record one operation of `ns` nanoseconds in `stage`. Relaxed atomics;
  /// callable from any thread.
  void Record(HotStage stage, std::uint64_t ns);

  StageStats Stats(HotStage stage) const;
  void Reset();

  /// {"codec_decode":{"count":..,"ns_per_op":..,"p50_ns":..,...},...}
  /// Stages with zero samples are omitted.
  std::string RenderJson() const;
  /// Human-readable per-stage table for CLI output.
  std::string RenderTable() const;

 private:
  struct StageCell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> min_ns{~0ull};
    std::atomic<std::uint64_t> max_ns{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  };

  static std::size_t BucketFor(std::uint64_t ns);
  static double Quantile(const std::array<std::uint64_t, kNumBuckets>& buckets,
                         std::uint64_t count, double q);

  std::array<StageCell, kHotStageCount> cells_{};
};

/// RAII probe. With a null profiler the constructor and destructor are both
/// a single pointer test — the "disabled" cost the hot paths pay by default.
class ScopedProbe {
 public:
  ScopedProbe(HotpathProfiler* profiler, HotStage stage)
      : profiler_(profiler),
        stage_(stage),
        start_(profiler ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{}) {}
  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;
  ~ScopedProbe() { Stop(); }

  /// Record nothing: the probed operation did not happen.
  void Cancel() { profiler_ = nullptr; }

  /// Record now instead of at destruction; returns elapsed ns.
  std::uint64_t Stop() {
    if (profiler_ == nullptr) return 0;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    profiler_->Record(stage_, ns);
    profiler_ = nullptr;
    return ns;
  }

 private:
  HotpathProfiler* profiler_;
  HotStage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bsobs
