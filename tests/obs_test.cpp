// Tests for bsobs: metric cell semantics, histogram bucket boundaries,
// registry handle rules, exporter golden strings and a concurrent-increment
// smoke test (the event ring's wraparound and Clear are checked here; the rest
// of SpanLog is tested in span_test). Also covers the Monitor::ExportCsv
// unwritable-path branch (it reports failure via the structured logger).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/node.hpp"
#include "detect/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using bsobs::Counter;
using bsobs::Gauge;
using bsobs::Histogram;
using bsobs::MetricsRegistry;
using bsobs::ScopedTimer;

// ---------------------------------------------------------------------------
// Cells

TEST(ObsCounter, IncrementSemantics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc();
  EXPECT_EQ(c.Value(), 2u);
  c.Inc(40);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(7.5);
  EXPECT_EQ(g.Value(), 7.5);
  g.Add(-2.5);
  EXPECT_EQ(g.Value(), 5.0);
  g.Set(-1.0);  // gauges may go negative, unlike counters
  EXPECT_EQ(g.Value(), -1.0);
}

TEST(ObsHistogram, BucketBoundariesAreInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1      -> bucket 0
  h.Observe(1.0);    // le is inclusive: exactly on the bound -> bucket 0
  h.Observe(1.0001); //            -> bucket 1
  h.Observe(10.0);   //            -> bucket 1
  h.Observe(99.9);   //            -> bucket 2
  h.Observe(1000.0); // above all  -> +Inf bucket
  ASSERT_EQ(h.NumBuckets(), 4u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 1000.0);
}

TEST(ObsHistogram, BoundsAreSortedAndDeduplicated) {
  Histogram h({10.0, 1.0, 10.0});
  ASSERT_EQ(h.UpperBounds().size(), 2u);
  EXPECT_EQ(h.UpperBounds()[0], 1.0);
  EXPECT_EQ(h.UpperBounds()[1], 10.0);
}

TEST(ObsScopedTimer, ObservesOnceAndToleratesNull) {
  Histogram h({1.0});
  {
    ScopedTimer t(&h);
    const double sec = t.Stop();
    EXPECT_GE(sec, 0.0);
    t.Stop();  // second Stop (and destruction) must not double-count
  }
  EXPECT_EQ(h.Count(), 1u);
  { ScopedTimer noop(nullptr); }  // must not crash
}

// ---------------------------------------------------------------------------
// Registry

TEST(ObsRegistry, ReRegistrationReturnsSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("bs_test_events_total", "help");
  Counter* b = reg.GetCounter("bs_test_events_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.Size(), 1u);
}

TEST(ObsRegistry, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("bs_test_x"), nullptr);
  EXPECT_EQ(reg.GetGauge("bs_test_x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("bs_test_x", {1.0}), nullptr);
  EXPECT_EQ(reg.FindCounter("bs_test_x") == nullptr, false);
  EXPECT_EQ(reg.FindGauge("bs_test_x"), nullptr);
  EXPECT_EQ(reg.FindCounter("bs_test_absent"), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters (golden strings)

TEST(ObsExport, PrometheusGolden) {
  MetricsRegistry reg;
  reg.GetCounter("bs_test_frames_total", "Frames seen")->Inc(3);
  reg.GetGauge("bs_test_peers")->Set(2.5);
  Histogram* h = reg.GetHistogram("bs_test_latency_seconds", {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);
  const std::string expected =
      "# HELP bs_test_frames_total Frames seen\n"
      "# TYPE bs_test_frames_total counter\n"
      "bs_test_frames_total 3\n"
      "# TYPE bs_test_peers gauge\n"
      "bs_test_peers 2.5\n"
      "# TYPE bs_test_latency_seconds histogram\n"
      "bs_test_latency_seconds_bucket{le=\"0.1\"} 1\n"
      "bs_test_latency_seconds_bucket{le=\"1\"} 2\n"
      "bs_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "bs_test_latency_seconds_sum 5.55\n"
      "bs_test_latency_seconds_count 3\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(ObsExport, JsonGolden) {
  MetricsRegistry reg;
  reg.GetCounter("c1")->Inc(7);
  reg.GetGauge("g1")->Set(1.5);
  Histogram* h = reg.GetHistogram("h1", {2.0});
  h->Observe(1.0);
  h->Observe(3.0);
  const std::string expected =
      "{\"counters\":{\"c1\":7},"
      "\"gauges\":{\"g1\":1.5},"
      "\"histograms\":{\"h1\":{\"buckets\":["
      "{\"le\":2,\"count\":1},{\"le\":\"+Inf\",\"count\":2}],"
      "\"sum\":4,\"count\":2}}}";
  EXPECT_EQ(reg.RenderJson(), expected);
}

// ---------------------------------------------------------------------------
// Event ring (SpanLog) wraparound and Clear, as the node's event log sees it

TEST(ObsTrace, WraparoundCountsDropsAndKeepsNewest) {
  bsobs::SpanLog trace(4);
  for (int i = 0; i < 10; ++i) {
    bsobs::SpanRecord rec;
    rec.time = i;
    rec.kind = bsobs::SpanKind::kDrop;
    rec.peer_id = 7;
    rec.a = i;
    trace.Record(rec);
  }
  EXPECT_EQ(trace.Capacity(), 4u);
  EXPECT_EQ(trace.Size(), 4u);
  EXPECT_EQ(trace.Recorded(), 10u);
  EXPECT_EQ(trace.Dropped(), 6u);
  const std::vector<bsobs::SpanRecord> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, holding the newest four records (times 6..9).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].time, 6 + i);
    EXPECT_EQ(events[i].a, 6 + i);
    EXPECT_EQ(events[i].peer_id, 7u);
  }
}

TEST(ObsTrace, ClearResetsRetainedButNotTotals) {
  bsobs::SpanLog trace(4);
  bsobs::SpanRecord ban;
  ban.time = 1;
  ban.kind = bsobs::SpanKind::kBan;
  ban.peer_id = 1;
  ban.a = 100;
  trace.Record(ban);
  trace.Clear();
  EXPECT_EQ(trace.Size(), 0u);
  EXPECT_TRUE(trace.Snapshot().empty());
}

// ---------------------------------------------------------------------------
// Concurrency smoke test

TEST(ObsConcurrency, ParallelIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("bs_test_parallel_total");
  Histogram* hist = reg.GetHistogram("bs_test_parallel_seconds", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Inc();
        hist->Observe(t % 2 == 0 ? 0.25 : 0.75);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter->Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->BucketCount(0) + hist->BucketCount(1), hist->Count());
}

// ---------------------------------------------------------------------------
// Monitor::ExportCsv error path (reported via the structured logger)

TEST(ObsMonitorExport, UnwritablePathReturnsFalse) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  bsnet::Node node(sched, net, 0x0a000001, bsnet::NodeConfig{});
  bsdetect::Monitor monitor(node);
  EXPECT_FALSE(monitor.ExportCsv("/nonexistent-dir-bsobs/export.csv"));
  const std::string ok_path = ::testing::TempDir() + "/bsobs_export.csv";
  EXPECT_TRUE(monitor.ExportCsv(ok_path));
  std::remove(ok_path.c_str());
}

// ---------------------------------------------------------------------------
// HotpathProfiler: per-stage stats, log2 histogram quantiles, disabled mode

TEST(ProfilerStats, CountsTotalsAndExtremes) {
  bsobs::HotpathProfiler prof;
  prof.Record(bsobs::HotStage::kCodecDecode, 100);
  prof.Record(bsobs::HotStage::kCodecDecode, 300);
  prof.Record(bsobs::HotStage::kCodecDecode, 200);
  const auto s = prof.Stats(bsobs::HotStage::kCodecDecode);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.total_ns, 600u);
  EXPECT_EQ(s.min_ns, 100u);
  EXPECT_EQ(s.max_ns, 300u);
  EXPECT_DOUBLE_EQ(s.ns_per_op, 200.0);
  // Other stages stay untouched.
  EXPECT_EQ(prof.Stats(bsobs::HotStage::kDispatch).count, 0u);
}

TEST(ProfilerStats, QuantilesLandInTheRecordedRange) {
  bsobs::HotpathProfiler prof;
  // 100 samples spread over [1000, 2000) ns — every quantile must stay
  // inside the covering log2 buckets' bounds.
  for (int i = 0; i < 100; ++i) {
    prof.Record(bsobs::HotStage::kTrackerUpdate,
                1000 + static_cast<std::uint64_t>(i) * 10);
  }
  const auto s = prof.Stats(bsobs::HotStage::kTrackerUpdate);
  EXPECT_GE(s.p50_ns, 512.0);
  EXPECT_LE(s.p50_ns, 2048.0);
  EXPECT_GE(s.p90_ns, s.p50_ns);
  EXPECT_GE(s.p99_ns, s.p90_ns);
  EXPECT_LE(s.p99_ns, 2048.0);
}

TEST(ProfilerStats, ResetClearsEverything) {
  bsobs::HotpathProfiler prof;
  prof.Record(bsobs::HotStage::kDetectTick, 50);
  prof.Reset();
  const auto s = prof.Stats(bsobs::HotStage::kDetectTick);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.total_ns, 0u);
}

TEST(ProfilerScopedProbe, NullProfilerIsANoop) {
  // The disabled configuration: probe against a null profiler must not
  // crash, not allocate, and report zero elapsed work recorded anywhere.
  for (int i = 0; i < 1000; ++i) {
    bsobs::ScopedProbe probe(nullptr, bsobs::HotStage::kDispatch);
    probe.Stop();
  }
  SUCCEED();
}

TEST(ProfilerScopedProbe, RecordsOnDestructionAndStopIsIdempotent) {
  bsobs::HotpathProfiler prof;
  {
    bsobs::ScopedProbe probe(&prof, bsobs::HotStage::kAddrmanSelect);
    probe.Stop();
    probe.Stop();  // second stop must not double-record
  }
  {
    bsobs::ScopedProbe probe(&prof, bsobs::HotStage::kAddrmanSelect);
  }  // records via the destructor
  EXPECT_EQ(prof.Stats(bsobs::HotStage::kAddrmanSelect).count, 2u);
}

TEST(ProfilerRender, JsonCoversRecordedStagesOnly) {
  bsobs::HotpathProfiler prof;
  prof.Record(bsobs::HotStage::kCodecDecode, 123);
  const std::string json = prof.RenderJson();
  EXPECT_NE(json.find("\"codec_decode\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  // Stages with no samples are omitted from the report.
  EXPECT_EQ(json.find("\"dispatch\""), std::string::npos);
}

// Named "Profiler" so the check.sh TSan stage includes it.
TEST(ProfilerConcurrency, ParallelRecordsAreExact) {
  bsobs::HotpathProfiler prof;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prof]() {
      for (int i = 0; i < kPerThread; ++i) {
        prof.Record(bsobs::HotStage::kDispatch,
                    static_cast<std::uint64_t>(i % 4096) + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = prof.Stats(bsobs::HotStage::kDispatch);
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.min_ns, 1u);
  EXPECT_EQ(s.max_ns, 4096u);
}

}  // namespace
