// Causal span tracing: id allocation, the bounded SpanLog ring, the
// stream-offset claim algorithm (exact / lost / resync / orphan), and the
// end-to-end cross-node lineage guarantees — including under network fault
// plans and with tracing disabled.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/node.hpp"
#include "obs/span.hpp"
#include "scenario/attack_worlds.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using bsnet::Node;
using bsnet::NodeConfig;
using bsobs::SpanKind;
using bsobs::SpanRecord;
using bsobs::SpanStreamKey;
using bsobs::SpanTracer;
using bsobs::TraceContext;

TEST(SpanTracerTest, BeginAllocatesDistinctIds) {
  SpanTracer tracer;
  const TraceContext a = tracer.Begin();
  const TraceContext b = tracer.Begin();
  EXPECT_TRUE(a.Valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_NE(a.span_id, b.span_id);
}

TEST(SpanTracerTest, ChildKeepsTraceIdAllocatesNewSpanId) {
  SpanTracer tracer;
  const TraceContext root = tracer.Begin();
  const TraceContext child = tracer.Child(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
}

TEST(SpanLogTest, RingWrapsAndCountsDrops) {
  bsobs::SpanLog log(4);
  for (int i = 0; i < 10; ++i) {
    SpanRecord rec;
    rec.span_id = static_cast<std::uint64_t>(i + 1);
    log.Record(rec);
  }
  EXPECT_EQ(log.Size(), 4u);
  EXPECT_EQ(log.Recorded(), 10u);
  EXPECT_EQ(log.Dropped(), 6u);
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest first: records 7, 8, 9, 10 survive.
  EXPECT_EQ(snap.front().span_id, 7u);
  EXPECT_EQ(snap.back().span_id, 10u);
}

TEST(SpanLogTest, RecordsInOrderBelowCapacity) {
  bsobs::SpanLog log(8);
  for (const auto& [time, kind] : {std::pair{100, SpanKind::kConnected},
                                   std::pair{200, SpanKind::kReceive},
                                   std::pair{300, SpanKind::kDisconnected}}) {
    SpanRecord rec;
    rec.time = time;
    rec.kind = kind;
    log.Record(rec);
  }
  EXPECT_EQ(log.Size(), 3u);
  EXPECT_EQ(log.Recorded(), 3u);
  EXPECT_EQ(log.Dropped(), 0u);
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].time, 100);
  EXPECT_EQ(snap[0].kind, SpanKind::kConnected);
  EXPECT_EQ(snap[2].time, 300);
}

TEST(SpanLogTest, ZeroCapacityKeepsNothing) {
  bsobs::SpanLog log(0);
  log.Record(SpanRecord{});
  EXPECT_EQ(log.Size(), 0u);
  EXPECT_EQ(log.Recorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SpanLogTest, RenderNamesKindsAndIdsOfTheNewestRecords) {
  bsobs::SpanLog log(8);
  SpanRecord event;
  event.time = bsim::kSecond;
  event.kind = SpanKind::kConnected;
  log.Record(event);
  SpanRecord ban;
  ban.time = 2 * bsim::kSecond;
  ban.kind = SpanKind::kBan;
  ban.trace_id = 4;
  ban.span_id = 9;
  ban.parent_span = 8;
  log.Record(ban);
  const std::string text = log.Render(1);
  EXPECT_NE(text.find("2/8 retained"), std::string::npos) << text;
  EXPECT_NE(text.find(bsobs::ToString(SpanKind::kBan)), std::string::npos) << text;
  EXPECT_NE(text.find("trace=4 span=9 parent=8"), std::string::npos) << text;
  // Only the newest record is listed.
  EXPECT_EQ(text.find(bsobs::ToString(SpanKind::kConnected)), std::string::npos) << text;
}

TEST(SpanLogTest, ClearResets) {
  bsobs::SpanLog log(4);
  log.Record(SpanRecord{});
  log.Clear();
  EXPECT_EQ(log.Size(), 0u);
  EXPECT_EQ(log.Recorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

// The ctest name carries "SpanLog" so the check.sh TSan stage picks it up.
TEST(SpanLogTest, ThreadedRecordIsSafe) {
  bsobs::SpanLog log(256);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        SpanRecord rec;
        rec.node_ip = static_cast<std::uint32_t>(t);
        log.Record(rec);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.Recorded(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.Size(), 256u);
}

TEST(SpanTracerTest, ThreadedClaimIsSafe) {
  SpanTracer tracer;
  constexpr int kThreads = 4;
  constexpr int kFrames = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t]() {
      const SpanStreamKey key{static_cast<std::uint64_t>(t + 1), 99};
      std::uint64_t offset = 0;
      for (int i = 0; i < kFrames; ++i) {
        const TraceContext ctx = tracer.Begin();
        tracer.NoteFrameSent(key, offset, 100, ctx);
        const bsobs::SpanClaim claim = tracer.ClaimFrame(key, offset, 100);
        EXPECT_TRUE(claim.ctx.Valid());
        offset += 100;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.PendingFrames(), 0u);
}

TEST(SpanClaimTest, ExactOffsetMatch) {
  SpanTracer tracer;
  const SpanStreamKey key{1, 2};
  const TraceContext c1 = tracer.Begin();
  const TraceContext c2 = tracer.Begin();
  tracer.NoteFrameSent(key, 0, 100, c1);
  tracer.NoteFrameSent(key, 100, 50, c2);

  const auto claim1 = tracer.ClaimFrame(key, 0, 100);
  EXPECT_EQ(claim1.ctx.span_id, c1.span_id);
  EXPECT_FALSE(claim1.resync);
  EXPECT_EQ(claim1.lost, 0u);
  const auto claim2 = tracer.ClaimFrame(key, 100, 50);
  EXPECT_EQ(claim2.ctx.span_id, c2.span_id);
  EXPECT_EQ(tracer.PendingFrames(), 0u);
}

TEST(SpanClaimTest, SkippedEntriesCountAsLost) {
  SpanTracer tracer;
  const SpanStreamKey key{1, 2};
  tracer.NoteFrameSent(key, 0, 100, tracer.Begin());
  const TraceContext kept = tracer.Begin();
  tracer.NoteFrameSent(key, 100, 50, kept);
  // The receiver's decoder next reaches offset 100: the [0,100) entry can
  // never match again.
  const auto claim = tracer.ClaimFrame(key, 100, 50);
  EXPECT_EQ(claim.ctx.span_id, kept.span_id);
  EXPECT_EQ(claim.lost, 1u);
  EXPECT_EQ(tracer.PendingDropped(), 1u);
}

TEST(SpanClaimTest, ForeignFrameMatchesByLengthAsResync) {
  SpanTracer tracer;
  const SpanStreamKey key{1, 2};
  const TraceContext injected = tracer.Begin();
  tracer.NoteForeignFrame(key, 94, injected);
  // The victim's decoder is at some offset the injector never knew.
  const auto claim = tracer.ClaimFrame(key, 7777, 94);
  EXPECT_EQ(claim.ctx.span_id, injected.span_id);
  EXPECT_TRUE(claim.resync);
}

TEST(SpanClaimTest, OffsetSkewMatchesByLengthAsResync) {
  SpanTracer tracer;
  const SpanStreamKey key{1, 2};
  const TraceContext ctx = tracer.Begin();
  // Sender registered [100,180); the receive stream is skewed forward by an
  // injected frame, so the decoder claims at 150.
  tracer.NoteFrameSent(key, 100, 80, ctx);
  const auto claim = tracer.ClaimFrame(key, 150, 80);
  EXPECT_EQ(claim.ctx.span_id, ctx.span_id);
  EXPECT_TRUE(claim.resync);
}

TEST(SpanClaimTest, UnmatchedClaimIsOrphan) {
  SpanTracer tracer;
  const SpanStreamKey key{1, 2};
  // Nothing registered at all.
  EXPECT_FALSE(tracer.ClaimFrame(key, 0, 100).ctx.Valid());
  // A future frame is registered but neither offset nor length match: the
  // entry must survive for its real claim later.
  const TraceContext ctx = tracer.Begin();
  tracer.NoteFrameSent(key, 500, 80, ctx);
  EXPECT_FALSE(tracer.ClaimFrame(key, 0, 33).ctx.Valid());
  EXPECT_EQ(tracer.PendingFrames(), 1u);
  EXPECT_TRUE(tracer.ClaimFrame(key, 500, 80).ctx.Valid());
}

TEST(SpanClaimTest, PendingCapDropsOldest) {
  SpanTracer tracer;
  const SpanStreamKey key{1, 2};
  for (std::uint64_t i = 0; i < 5000; ++i) {
    tracer.NoteFrameSent(key, i * 10, 10, tracer.Begin());
  }
  EXPECT_EQ(tracer.PendingFrames(), 4096u);
  EXPECT_EQ(tracer.PendingDropped(), 5000u - 4096u);
}

// ---------------------------------------------------------------------------
// End-to-end lineage through the simulated network.

/// Walk parent links from `leaf` through `by_span`; returns the chain
/// leaf-first.
std::vector<const SpanRecord*> WalkChain(
    const SpanRecord* leaf, const std::map<std::uint64_t, const SpanRecord*>& by_span) {
  std::vector<const SpanRecord*> chain;
  for (const SpanRecord* rec = leaf; rec != nullptr;) {
    chain.push_back(rec);
    if (rec->parent_span == 0) break;
    const auto it = by_span.find(rec->parent_span);
    rec = it == by_span.end() ? nullptr : it->second;
  }
  return chain;
}

std::map<std::uint64_t, const SpanRecord*> IndexBySpan(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, const SpanRecord*> by_span;
  for (const SpanRecord& rec : spans) by_span[rec.span_id] = &rec;
  return by_span;
}

TEST(SpanLineageTest, BlockRelayChainCrossesNodes) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  SpanTracer tracer;

  NodeConfig ac;
  ac.span_tracer = &tracer;
  ac.target_outbound = 1;
  Node a(sched, net, 0x0a000001, ac);
  NodeConfig bc;
  bc.span_tracer = &tracer;
  bc.target_outbound = 0;
  Node b(sched, net, 0x0a000002, bc);
  b.Start();
  a.AddKnownAddress({b.Ip(), 8333});
  a.Start();
  sched.RunUntil(5 * bsim::kSecond);

  // a mines: INV -> b GETDATA -> a BLOCK -> b. The last BLOCK receive on b
  // must chain back, across both nodes, to a's root INV send.
  ASSERT_TRUE(a.MineAndRelay().has_value());
  sched.RunUntil(sched.Now() + 2 * bsim::kSecond);

  const auto spans = tracer.Log().Snapshot();
  const auto by_span = IndexBySpan(spans);
  const SpanRecord* block_recv = nullptr;
  for (const SpanRecord& rec : spans) {
    if (rec.kind == SpanKind::kReceive && rec.node_ip == b.Ip() &&
        rec.msg_type == static_cast<std::int16_t>(bsproto::MsgType::kBlock)) {
      block_recv = &rec;
    }
  }
  ASSERT_NE(block_recv, nullptr) << "no BLOCK receive span on node b";

  const auto chain = WalkChain(block_recv, by_span);
  ASSERT_GE(chain.size(), 5u);  // recv BLOCK <- send BLOCK <- recv GETDATA
                                // <- send GETDATA <- recv INV <- send INV
  const SpanRecord* root = chain.back();
  EXPECT_EQ(root->parent_span, 0u);
  EXPECT_EQ(root->kind, SpanKind::kSend);
  EXPECT_EQ(root->node_ip, a.Ip());
  std::set<std::uint32_t> nodes;
  for (const SpanRecord* rec : chain) nodes.insert(rec->node_ip);
  EXPECT_EQ(nodes.size(), 2u);
  // Every span in the chain belongs to one trace.
  for (const SpanRecord* rec : chain) {
    EXPECT_EQ(rec->trace_id, root->trace_id);
  }
}

TEST(SpanLineageTest, MisbehaviorAndBanChainToAttackerSend) {
  // One Sybil identifier floods duplicate VERSIONs until it is banned.
  SpanTracer tracer;
  bsscenario::SybilSpec spec;
  spec.tracer = &tracer;
  spec.attack.max_identifiers = 1;
  bsscenario::SybilWorld world(spec);
  ASSERT_EQ(world.Run(5).banned, 1);

  const auto spans = tracer.Log().Snapshot();
  const auto by_span = IndexBySpan(spans);
  const SpanRecord* ban = nullptr;
  for (const SpanRecord& rec : spans) {
    if (rec.kind == SpanKind::kBan) ban = &rec;
  }
  ASSERT_NE(ban, nullptr);
  const auto chain = WalkChain(ban, by_span);
  // ban <- misbehavior <- recv VERSION <- attacker send VERSION (root).
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[1]->kind, SpanKind::kMisbehavior);
  EXPECT_EQ(chain[2]->kind, SpanKind::kReceive);
  EXPECT_EQ(chain[3]->kind, SpanKind::kSend);
  EXPECT_EQ(chain[3]->node_ip, spec.attacker_ip);
  EXPECT_EQ(chain[3]->parent_span, 0u);
}

TEST(SpanLineageTest, PostConnectionDefamationChainReachesInjector) {
  SpanTracer tracer;
  bsscenario::DefameSpec spec;
  spec.tracer = &tracer;
  bsscenario::DefameWorld world(spec);
  ASSERT_TRUE(world.DefamePost().injected);
  ASSERT_GE(world.target->PeersBanned(), 1u);

  const auto spans = tracer.Log().Snapshot();
  const auto by_span = IndexBySpan(spans);
  const SpanRecord* ban = nullptr;
  for (const SpanRecord& rec : spans) {
    if (rec.kind == SpanKind::kBan) ban = &rec;
  }
  ASSERT_NE(ban, nullptr);
  // The banned identity is the innocent peer...
  EXPECT_EQ(static_cast<std::uint32_t>(ban->a), bsscenario::DefameWorld::kInnocentIp);
  // ...but the causal root is the attacker's inject span, resync-claimed.
  const auto chain = WalkChain(ban, by_span);
  const SpanRecord* root = chain.back();
  EXPECT_EQ(root->kind, SpanKind::kInject);
  EXPECT_EQ(root->node_ip, bsscenario::DefameWorld::kAttackerIp);
  bool saw_resync = false;
  for (const SpanRecord* rec : chain) {
    if ((rec->flags & bsobs::kFlagResync) != 0) saw_resync = true;
  }
  EXPECT_TRUE(saw_resync);
}

TEST(SpanFaultTest, LineageSurvivesLossDupReorder) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  bsim::FaultPlan plan(sched, /*seed=*/1234);
  net.SetFaultPlan(&plan);
  bsim::FaultSpec spec;
  spec.loss = 0.10;
  spec.duplicate = 0.08;
  spec.reorder = 0.15;
  plan.SetDefaultFaults(spec);

  SpanTracer tracer;
  NodeConfig ac;
  ac.span_tracer = &tracer;
  ac.target_outbound = 1;
  ac.ping_interval = 200 * bsim::kMillisecond;
  Node a(sched, net, 0x0a000001, ac);
  NodeConfig bc;
  bc.span_tracer = &tracer;
  bc.target_outbound = 0;
  bc.ping_interval = 200 * bsim::kMillisecond;
  Node b(sched, net, 0x0a000002, bc);
  b.Start();
  a.AddKnownAddress({b.Ip(), 8333});
  a.Start();
  sched.RunUntil(30 * bsim::kSecond);

  // Reliable TCP rebuilds the exact byte stream, so every decoded frame must
  // claim its send span: no orphans, no resyncs, despite the weather.
  const auto spans = tracer.Log().Snapshot();
  std::size_t receives = 0;
  for (const SpanRecord& rec : spans) {
    if (rec.kind != SpanKind::kReceive) continue;
    ++receives;
    EXPECT_EQ(rec.flags & bsobs::kFlagOrphan, 0) << "orphan receive span";
    EXPECT_EQ(rec.flags & bsobs::kFlagResync, 0) << "resync receive span";
    EXPECT_NE(rec.parent_span, 0u);
  }
  EXPECT_GT(receives, 50u);
}

TEST(SpanDisabledTest, NodesWorkWithoutTracerAndRegisterNothing) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  // No tracer anywhere: the default-off configuration.
  NodeConfig ac;
  ac.target_outbound = 1;
  ac.ping_interval = 500 * bsim::kMillisecond;
  Node a(sched, net, 0x0a000001, ac);
  NodeConfig bc;
  bc.target_outbound = 0;
  Node b(sched, net, 0x0a000002, bc);
  b.Start();
  a.AddKnownAddress({b.Ip(), 8333});
  a.Start();
  sched.RunUntil(10 * bsim::kSecond);
  ASSERT_TRUE(a.MineAndRelay().has_value());
  sched.RunUntil(sched.Now() + 2 * bsim::kSecond);
  EXPECT_GT(a.TotalMessagesReceived(), 0u);
  EXPECT_GT(b.TotalMessagesReceived(), 0u);

  // Stream offsets advance regardless (they are plain integers), but the
  // sim-visible behavior is identical and nothing references a tracer.
  for (const bsnet::Peer* p : a.Peers()) {
    EXPECT_GT(p->tx_stream_offset, 0u);
  }
}

TEST(SpanDisabledTest, TracingDoesNotChangeSimulationOutcome) {
  // The same seeded world with and without a tracer must produce identical
  // message/event counts — the bit-identical guarantee the benches rely on —
  // and node a must write the same records, which differ only in their ids.
  struct Outcome {
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::vector<SpanRecord> records;  // node a's, oldest first
  };
  const auto run = [](SpanTracer* tracer) {
    bsim::Scheduler sched;
    bsim::Network net(sched);
    NodeConfig ac;
    ac.span_tracer = tracer;
    ac.target_outbound = 1;
    ac.ping_interval = 250 * bsim::kMillisecond;
    Node a(sched, net, 0x0a000001, ac);
    NodeConfig bc;
    bc.span_tracer = tracer;
    bc.target_outbound = 0;
    Node b(sched, net, 0x0a000002, bc);
    b.Start();
    a.AddKnownAddress({b.Ip(), 8333});
    a.Start();
    sched.RunUntil(5 * bsim::kSecond);
    a.MineAndRelay();
    sched.RunUntil(10 * bsim::kSecond);
    Outcome out{sched.ExecutedEvents(),
                a.TotalMessagesReceived() + b.TotalMessagesReceived(),
                {}};
    EXPECT_EQ(a.Trace().Dropped(), 0u);
    for (const SpanRecord& rec : a.Trace().Snapshot()) {
      if (rec.node_ip == a.Ip()) out.records.push_back(rec);
    }
    return out;
  };
  SpanTracer tracer;
  const Outcome off = run(nullptr);
  const Outcome on = run(&tracer);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.messages, on.messages);
  ASSERT_EQ(off.records.size(), on.records.size());
  ASSERT_FALSE(off.records.empty());
  bool traced = false;
  for (std::size_t i = 0; i < off.records.size(); ++i) {
    const SpanRecord& x = off.records[i];
    const SpanRecord& y = on.records[i];
    EXPECT_EQ(x.kind, y.kind) << "record " << i;
    EXPECT_EQ(x.time, y.time) << "record " << i;
    EXPECT_EQ(x.peer_id, y.peer_id) << "record " << i;
    EXPECT_EQ(x.a, y.a) << "record " << i;
    EXPECT_EQ(x.b, y.b) << "record " << i;
    EXPECT_EQ(x.trace_id, 0u) << "record " << i;
    EXPECT_EQ(y.trace_id != 0, bsobs::IsCausal(y.kind)) << "record " << i;
    traced = traced || y.trace_id != 0;
  }
  EXPECT_TRUE(traced);
}

TEST(SpanNodeTest, FrameMisbehaviorAndBanAreEachRecordedOnce) {
  // Two Sybil identifiers flood duplicate VERSIONs until each is banned.
  SpanTracer tracer;
  bsscenario::SybilSpec spec;
  spec.tracer = &tracer;
  spec.attack.max_identifiers = 2;
  bsscenario::SybilWorld world(spec);
  ASSERT_EQ(world.Run(10).banned, 2);
  ASSERT_EQ(tracer.Log().Dropped(), 0u);

  const Node& target = *world.target;
  std::map<SpanKind, std::uint64_t> records;
  for (const SpanRecord& rec : tracer.Log().Snapshot()) {
    if (rec.node_ip == target.Ip()) ++records[rec.kind];
  }
  const std::uint64_t points =
      world.target->Metrics().GetCounter("bs_ban_score_events_total")->Value();
  EXPECT_GT(points, 0u);
  EXPECT_EQ(records[SpanKind::kReceive], target.TotalMessagesReceived());
  EXPECT_EQ(records[SpanKind::kMisbehavior], points);
  EXPECT_EQ(records[SpanKind::kBan], target.PeersBanned());
  EXPECT_EQ(records[SpanKind::kBan], 2u);
}

}  // namespace
