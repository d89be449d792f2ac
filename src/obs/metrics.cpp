#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/json.hpp"

namespace bsobs {

namespace {

/// Numbers in exposition output: integers print without a decimal point so
/// golden strings stay readable; everything else gets shortest-round-trip-ish
/// %.10g (enough for counts and second-scale latencies alike).
std::string FormatNumber(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string FormatCount(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound is >= value (le is inclusive).
  const std::size_t index = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::AtomicAdd(sum_, value);
}

const std::vector<double>& LatencyBucketsSeconds() {
  static const std::vector<double> kBuckets = {
      1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
      1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
      0.1,  0.25,   0.5,  1.0};
  return kBuckets;
}

const std::vector<double>& SizeBucketsBytes() {
  static const std::vector<double> kBuckets = {
      64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304};
  return kBuckets;
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (const auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name)) return e->kind == Kind::kCounter ? e->counter.get() : nullptr;
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kCounter;
  entry->name = name;
  entry->help = help;
  entry->counter = std::make_unique<Counter>();
  Counter* handle = entry->counter.get();
  entries_.push_back(std::move(entry));
  return handle;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name)) return e->kind == Kind::kGauge ? e->gauge.get() : nullptr;
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kGauge;
  entry->name = name;
  entry->help = help;
  entry->gauge = std::make_unique<Gauge>();
  Gauge* handle = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return handle;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = Find(name)) {
    return e->kind == Kind::kHistogram ? e->histogram.get() : nullptr;
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kHistogram;
  entry->name = name;
  entry->help = help;
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram* handle = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return handle;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = Find(name);
  return (e != nullptr && e->kind == Kind::kCounter) ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = Find(name);
  return (e != nullptr && e->kind == Kind::kGauge) ? e->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = Find(name);
  return (e != nullptr && e->kind == Kind::kHistogram) ? e->histogram.get() : nullptr;
}

std::size_t MetricsRegistry::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// Exposition

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& e : entries_) {
    if (!e->help.empty()) out += "# HELP " + e->name + " " + e->help + "\n";
    switch (e->kind) {
      case Kind::kCounter:
        out += "# TYPE " + e->name + " counter\n";
        out += e->name + " " + FormatCount(e->counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " " + FormatNumber(e->gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + e->name + " histogram\n";
        const Histogram& h = *e->histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.UpperBounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          out += e->name + "_bucket{le=\"" + FormatNumber(h.UpperBounds()[i]) +
                 "\"} " + FormatCount(cumulative) + "\n";
        }
        cumulative += h.BucketCount(h.UpperBounds().size());
        out += e->name + "_bucket{le=\"+Inf\"} " + FormatCount(cumulative) + "\n";
        out += e->name + "_sum " + FormatNumber(h.Sum()) + "\n";
        out += e->name + "_count " + FormatCount(h.Count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += "\"" + bsutil::JsonEscape(e->name) +
                    "\":" + FormatCount(e->counter->Value());
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges +=
            "\"" + bsutil::JsonEscape(e->name) + "\":" + FormatNumber(e->gauge->Value());
        break;
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ",";
        const Histogram& h = *e->histogram;
        std::string buckets;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.UpperBounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          if (!buckets.empty()) buckets += ",";
          buckets += "{\"le\":" + FormatNumber(h.UpperBounds()[i]) +
                     ",\"count\":" + FormatCount(cumulative) + "}";
        }
        cumulative += h.BucketCount(h.UpperBounds().size());
        if (!buckets.empty()) buckets += ",";
        buckets += "{\"le\":\"+Inf\",\"count\":" + FormatCount(cumulative) + "}";
        histograms += "\"" + bsutil::JsonEscape(e->name) + "\":{\"buckets\":[" +
                      buckets + "],\"sum\":" + FormatNumber(h.Sum()) +
                      ",\"count\":" + FormatCount(h.Count()) + "}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

}  // namespace bsobs
