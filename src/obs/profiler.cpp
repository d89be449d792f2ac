#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace bsobs {

const char* StageName(HotStage stage) {
  switch (stage) {
    case HotStage::kCodecDecode:
      return "codec_decode";
    case HotStage::kTrackerUpdate:
      return "tracker_update";
    case HotStage::kDetectTick:
      return "detect_tick";
    case HotStage::kAddrmanSelect:
      return "addrman_select";
    case HotStage::kDispatch:
      return "dispatch";
    case HotStage::kFrameProcess:
      return "frame_process";
    case HotStage::kStageCount:
      break;
  }
  return "?";
}

std::size_t HotpathProfiler::BucketFor(std::uint64_t ns) {
  // Bucket i holds samples in [2^i, 2^(i+1)) ns; bucket 0 additionally holds
  // 0-ns samples, the last bucket holds everything beyond the ladder.
  std::size_t i = 0;
  while (ns > 1 && i + 1 < kNumBuckets) {
    ns >>= 1;
    ++i;
  }
  return i;
}

void HotpathProfiler::Record(HotStage stage, std::uint64_t ns) {
  StageCell& cell = cells_[static_cast<std::size_t>(stage)];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.total_ns.fetch_add(ns, std::memory_order_relaxed);
  // Relaxed CAS min/max: rare contention, monotone convergence.
  std::uint64_t cur = cell.min_ns.load(std::memory_order_relaxed);
  while (ns < cur &&
         !cell.min_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = cell.max_ns.load(std::memory_order_relaxed);
  while (ns > cur &&
         !cell.max_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cell.buckets[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
}

double HotpathProfiler::Quantile(
    const std::array<std::uint64_t, kNumBuckets>& buckets, std::uint64_t count,
    double q) {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate linearly inside [2^i, 2^(i+1)).
      const double lo = (i == 0) ? 0.0 : static_cast<double>(1ull << i);
      const double hi = static_cast<double>(1ull << (i + 1));
      const double frac = (target - seen) / in_bucket;
      return lo + frac * (hi - lo);
    }
    seen += in_bucket;
  }
  return static_cast<double>(1ull << kNumBuckets);
}

StageStats HotpathProfiler::Stats(HotStage stage) const {
  const StageCell& cell = cells_[static_cast<std::size_t>(stage)];
  StageStats s;
  s.count = cell.count.load(std::memory_order_relaxed);
  s.total_ns = cell.total_ns.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.min_ns = cell.min_ns.load(std::memory_order_relaxed);
  s.max_ns = cell.max_ns.load(std::memory_order_relaxed);
  s.ns_per_op = static_cast<double>(s.total_ns) / static_cast<double>(s.count);
  std::array<std::uint64_t, kNumBuckets> snap{};
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    snap[i] = cell.buckets[i].load(std::memory_order_relaxed);
  }
  s.p50_ns = Quantile(snap, s.count, 0.50);
  s.p90_ns = Quantile(snap, s.count, 0.90);
  s.p99_ns = Quantile(snap, s.count, 0.99);
  return s;
}

void HotpathProfiler::Reset() {
  for (StageCell& cell : cells_) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.total_ns.store(0, std::memory_order_relaxed);
    cell.min_ns.store(~0ull, std::memory_order_relaxed);
    cell.max_ns.store(0, std::memory_order_relaxed);
    for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
  }
}

std::string HotpathProfiler::RenderJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (std::size_t i = 0; i < kHotStageCount; ++i) {
    const auto stage = static_cast<HotStage>(i);
    const StageStats s = Stats(stage);
    if (s.count == 0) continue;
    if (!first) out << ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%llu,\"total_ns\":%llu,\"ns_per_op\":%.1f,"
                  "\"min_ns\":%llu,\"max_ns\":%llu,\"p50_ns\":%.1f,"
                  "\"p90_ns\":%.1f,\"p99_ns\":%.1f}",
                  StageName(stage), static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.total_ns), s.ns_per_op,
                  static_cast<unsigned long long>(s.min_ns),
                  static_cast<unsigned long long>(s.max_ns), s.p50_ns, s.p90_ns,
                  s.p99_ns);
    out << buf;
  }
  out << "}";
  return out.str();
}

std::string HotpathProfiler::RenderTable() const {
  std::ostringstream out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-16s %10s %12s %10s %10s %10s\n", "stage",
                "count", "ns/op", "p50_ns", "p90_ns", "p99_ns");
  out << buf;
  for (std::size_t i = 0; i < kHotStageCount; ++i) {
    const auto stage = static_cast<HotStage>(i);
    const StageStats s = Stats(stage);
    if (s.count == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-16s %10llu %12.1f %10.1f %10.1f %10.1f\n",
                  StageName(stage), static_cast<unsigned long long>(s.count),
                  s.ns_per_op, s.p50_ns, s.p90_ns, s.p99_ns);
    out << buf;
  }
  return out.str();
}

}  // namespace bsobs
