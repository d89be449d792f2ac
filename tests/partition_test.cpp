// PartitionMonitor unit tests (pure state machine) plus live-node coverage
// of the tip-probe exchange, the recovery ladder, and partition-aware
// misbehavior damping.
#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "chain/miner.hpp"
#include "core/node.hpp"
#include "core/partition.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace bsnet;  // NOLINT
using bsattack::AttackerNode;
using bsattack::AttackSession;
using bsattack::Crafter;

PartitionParams TestParams() {
  return PartitionParams{.expected_block_interval = 3 * bsim::kSecond,
                         .ladder_step = 5 * bsim::kSecond};
}

// ---------------------------------------------------------------------------
// Monitor: individual signals

TEST(PartitionMonitorTest, StaleSignalRampsWithoutTipAdvance) {
  PartitionMonitor mon(TestParams());
  // Regular cadence: one block every 3 s.
  for (int h = 1; h <= 5; ++h) {
    mon.OnTipAdvance(h * 3 * bsim::kSecond, h);
  }
  bsim::SimTime last = 5 * 3 * bsim::kSecond;
  mon.Update(last + bsim::kSecond, 5);
  EXPECT_DOUBLE_EQ(mon.StaleSignal(), 0.0);  // within one interval: normal
  mon.Update(last + 6 * bsim::kSecond, 5);
  EXPECT_GT(mon.StaleSignal(), 0.0);
  EXPECT_LT(mon.StaleSignal(), 1.0);
  mon.Update(last + 60 * bsim::kSecond, 5);
  EXPECT_DOUBLE_EQ(mon.StaleSignal(), 1.0);  // saturated
}

TEST(PartitionMonitorTest, TipAdvanceResetsStaleness) {
  PartitionMonitor mon(TestParams());
  mon.Update(bsim::kSecond, 0);  // arm
  mon.Update(60 * bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.StaleSignal(), 1.0);
  // Update() notices the externally advanced tip even without OnTipAdvance.
  mon.Update(61 * bsim::kSecond, 3);
  EXPECT_DOUBLE_EQ(mon.StaleSignal(), 0.0);
}

TEST(PartitionMonitorTest, DivergenceSignalTracksProbeGap) {
  PartitionMonitor mon(TestParams());
  const bsim::SimTime now = 10 * bsim::kSecond;
  mon.OnProbeObservation(now, /*peer=*/7, /*height=*/10);
  mon.Update(now, /*our_height=*/10);
  EXPECT_DOUBLE_EQ(mon.DivergenceSignal(), 0.0);  // level: no divergence
  mon.OnProbeObservation(now, 8, 12);  // gap == the 2-block divergence bar
  mon.Update(now, 10);
  EXPECT_DOUBLE_EQ(mon.DivergenceSignal(), 0.5);
  mon.OnProbeObservation(now, 9, 14);  // gap == twice the bar
  mon.Update(now, 10);
  EXPECT_DOUBLE_EQ(mon.DivergenceSignal(), 1.0);
}

TEST(PartitionMonitorTest, StaleObservationsExpire) {
  PartitionMonitor mon(TestParams());
  mon.OnProbeObservation(bsim::kSecond, 7, 100);
  mon.Update(2 * bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DivergenceSignal(), 1.0);
  // Past kProbeFreshness the observation is pruned and the signal collapses.
  mon.Update(2 * bsim::kSecond + PartitionMonitor::kProbeFreshness + bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DivergenceSignal(), 0.0);
}

TEST(PartitionMonitorTest, ForgettingAPeerDropsItsObservation) {
  PartitionMonitor mon(TestParams());
  mon.OnProbeObservation(bsim::kSecond, 7, 100);
  mon.ForgetPeer(7);
  mon.Update(2 * bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DivergenceSignal(), 0.0);
}

TEST(PartitionMonitorTest, DiversityDrawdownAgainstWatermark) {
  PartitionMonitor mon(TestParams());
  mon.NoteNetgroupDiversity(5);
  mon.Update(bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DiversitySignal(), 0.0);
  mon.NoteNetgroupDiversity(2);  // three /16 groups sheared off
  mon.Update(2 * bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DiversitySignal(), 0.6);
  mon.NoteNetgroupDiversity(5);  // healed: watermark unchanged, signal clears
  mon.Update(3 * bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DiversitySignal(), 0.0);
}

TEST(PartitionMonitorTest, MostDivergentPeerIsTheFurthestBehind) {
  PartitionMonitor mon(TestParams());
  const bsim::SimTime now = bsim::kSecond;
  mon.OnProbeObservation(now, 1, 8);
  mon.OnProbeObservation(now, 2, 3);
  mon.OnProbeObservation(now, 3, 15);  // ahead of us: never a rotation victim
  EXPECT_EQ(mon.MostDivergentPeer(10), std::optional<std::uint64_t>(2));
  EXPECT_EQ(mon.MostDivergentPeer(2), std::nullopt);  // nobody trails us
  EXPECT_EQ(mon.BestRemoteHeight(), std::optional<std::int32_t>(15));
}

// ---------------------------------------------------------------------------
// Monitor: hysteresis and the recovery ladder

TEST(PartitionMonitorTest, HysteresisArmsAtHighDisarmsAtLow) {
  PartitionMonitor mon(TestParams());
  const bsim::SimTime t0 = 10 * bsim::kSecond;
  mon.OnProbeObservation(t0, 7, 100);  // divergence 1.0 → suspicion 0.55
  mon.Update(t0, 0);
  EXPECT_TRUE(mon.SuspicionHigh());
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kFeelerBurst);

  // Mid-band suspicion holds the armed state (no flapping).
  mon.ForgetPeer(7);
  mon.OnProbeObservation(t0, 7, 2);  // gap 2 → divergence 0.5 → ~0.275
  bool recovered = false;
  mon.Update(t0 + bsim::kSecond, 0, &recovered);
  EXPECT_TRUE(mon.SuspicionHigh());
  EXPECT_FALSE(recovered);

  // Tip catches up past every observation: suspicion collapses below low.
  mon.Update(t0 + 2 * bsim::kSecond, 100, &recovered);
  EXPECT_FALSE(mon.SuspicionHigh());
  EXPECT_TRUE(recovered);
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kNone);
  // The recovery flag fires exactly once.
  mon.Update(t0 + 3 * bsim::kSecond, 100, &recovered);
  EXPECT_FALSE(recovered);
}

TEST(PartitionMonitorTest, LadderEscalatesOneStagePerStep) {
  const PartitionParams params = TestParams();
  PartitionMonitor mon(params);
  const bsim::SimTime t0 = 10 * bsim::kSecond;
  mon.OnProbeObservation(t0, 7, 100);
  auto refresh = [&](bsim::SimTime t) {
    mon.OnProbeObservation(t, 7, 100);  // keep the observation fresh
    mon.Update(t, 0);
  };
  refresh(t0);
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kFeelerBurst);
  refresh(t0 + params.ladder_step);
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kAnchorRedial);
  refresh(t0 + 2 * params.ladder_step);
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kEmergencySlot);
  refresh(t0 + 3 * params.ladder_step);
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kRotate);
  // Terminal stage: escalation stops at rotation.
  refresh(t0 + 30 * params.ladder_step);
  EXPECT_EQ(mon.CurrentStage(), PartitionMonitor::Stage::kRotate);
}

TEST(PartitionMonitorTest, ResetDropsAllTransientState) {
  PartitionMonitor mon(TestParams());
  mon.NoteNetgroupDiversity(8);
  mon.OnProbeObservation(bsim::kSecond, 7, 100);
  mon.Update(bsim::kSecond, 0);
  EXPECT_TRUE(mon.SuspicionHigh());
  mon.Reset();
  EXPECT_FALSE(mon.SuspicionHigh());
  EXPECT_DOUBLE_EQ(mon.Suspicion(), 0.0);
  EXPECT_EQ(mon.BestRemoteHeight(), std::nullopt);
  mon.NoteNetgroupDiversity(2);  // watermark was cleared: 2 is the new 100%
  mon.Update(2 * bsim::kSecond, 0);
  EXPECT_DOUBLE_EQ(mon.DiversitySignal(), 0.0);
}

// ---------------------------------------------------------------------------
// Live node: probe exchange, suspicion, damping

struct PartitionNodeFixture : ::testing::Test {
  static NodeConfig HardenedConfig() {
    NodeConfig config;
    config.enable_partition_resilience = true;
    config.partition_probe_interval = 2 * bsim::kSecond;
    config.partition_expected_block_interval = 3 * bsim::kSecond;
    config.partition_ladder_step = 5 * bsim::kSecond;
    return config;
  }

  PartitionNodeFixture()
      : net(sched),
        node(sched, net, 0x0a000001, HardenedConfig()),
        attacker(sched, net, 0x0a000002, NodeConfig{}.chain.magic),
        crafter(NodeConfig{}.chain) {
    node.Start();
  }

  AttackSession* ReadySession() {
    AttackSession* session = attacker.OpenSession({0x0a000001, 8333});
    sched.RunUntil(sched.Now() + bsim::kSecond);
    EXPECT_TRUE(session->SessionReady());
    return session;
  }

  void Settle(bsim::SimTime how_long = bsim::kSecond) {
    sched.RunUntil(sched.Now() + how_long);
  }

  int ScoreOf(AttackSession* session) {
    Peer* peer = node.FindPeerByRemote(session->local);
    return peer == nullptr ? -1 : node.Tracker().Score(peer->id);
  }

  bsim::Scheduler sched;
  bsim::Network net;
  Node node;
  AttackerNode attacker;
  Crafter crafter;
};

TEST_F(PartitionNodeFixture, NodeAnswersTipProbeRequests) {
  auto* session = ReadySession();
  std::vector<bsproto::TipProbeMsg> replies;
  session->on_message = [&](bsattack::AttackSession&, const bsproto::Message& m) {
    if (bsproto::MsgTypeOf(m) == bsproto::MsgType::kTipProbe) {
      replies.push_back(std::get<bsproto::TipProbeMsg>(m));
    }
  };
  bsproto::TipProbeMsg probe;
  probe.nonce = 0xabc;
  probe.tips.push_back({node.Chain().TipHeight(), node.Chain().TipHash()});
  attacker.Send(*session, probe);
  Settle();
  // The node answers with its own tip vector, echoing the nonce.
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies.front().nonce, 0xabcu);
  ASSERT_FALSE(replies.front().tips.empty());
  EXPECT_EQ(replies.front().tips.front().height, node.Chain().TipHeight());
}

TEST_F(PartitionNodeFixture, DivergentProbeRaisesSuspicionAndRunsLadder) {
  auto* session = ReadySession();
  EXPECT_DOUBLE_EQ(node.PartitionSuspicion(), 0.0);
  bsproto::TipProbeMsg probe;
  probe.nonce = 0x111;
  probe.tips.push_back({100, crafter.PrevMissingBlock().block.Hash()});
  attacker.Send(*session, probe);
  Settle(3 * bsim::kSecond);  // a maintenance tick fuses the observation
  EXPECT_TRUE(node.Partition().SuspicionHigh());
  EXPECT_GE(node.PartitionSuspicion(), 0.5);
  EXPECT_EQ(node.PartitionSuspectWindows(), 1u);
  EXPECT_GE(node.PartitionRecoveryActions(), 1u);  // feeler burst attempted
  EXPECT_EQ(node.PartitionRecoveries(), 0u);
}

TEST_F(PartitionNodeFixture, ProbesAreSentAndRepliesRecorded) {
  ReadySession();
  Settle(6 * bsim::kSecond);  // a few probe intervals
  EXPECT_GE(node.TipProbesSent(), 2u);
  // The attack harness does not answer probes, so no replies accrue — but
  // sending must not leak suspicion either: the attacker reports nothing.
  EXPECT_EQ(node.TipProbeReplies(), 0u);
  EXPECT_FALSE(node.Partition().SuspicionHigh());
}

TEST_F(PartitionNodeFixture, DampingDefersStaleBlockPenaltyForGoodPeers) {
  auto* session = ReadySession();

  // The peer proves itself with a valid block (good-score credit, tip moves).
  attacker.Send(*session, crafter.ValidBlock(node.Chain().TipHash()));
  Settle();
  ASSERT_EQ(node.Chain().TipHeight(), 1);
  ASSERT_EQ(ScoreOf(session), 0);

  // Calm network: a prev-missing block scores the usual +10.
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(ScoreOf(session), 10);
  EXPECT_EQ(node.DeferredPenalties(), 0u);

  // Partition suspected (a far-ahead tip observation lands): the same
  // symptom from the same good-score peer is deferred, not scored.
  bsproto::TipProbeMsg probe;
  probe.nonce = 0x222;
  probe.tips.push_back({200, crafter.PrevMissingBlock().block.Hash()});
  attacker.Send(*session, probe);
  Settle(3 * bsim::kSecond);
  ASSERT_TRUE(node.Partition().SuspicionHigh());
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(ScoreOf(session), 10);  // unchanged
  EXPECT_EQ(node.DeferredPenalties(), 1u);
}

TEST_F(PartitionNodeFixture, DampingNeverShieldsZeroCreditPeers) {
  auto* session = ReadySession();
  // Suspicion high, but this peer never delivered a valid block: the
  // damping must not shield it (a defamation-style attacker could otherwise
  // fake a partition to misbehave for free).
  bsproto::TipProbeMsg probe;
  probe.nonce = 0x333;
  probe.tips.push_back({200, crafter.PrevMissingBlock().block.Hash()});
  attacker.Send(*session, probe);
  Settle(3 * bsim::kSecond);
  ASSERT_TRUE(node.Partition().SuspicionHigh());
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(ScoreOf(session), 10);
  EXPECT_EQ(node.DeferredPenalties(), 0u);
}

TEST_F(PartitionNodeFixture, DampingRequestsHeadersFromDivergentSender) {
  auto* session = ReadySession();
  int getheaders_seen = 0;
  session->on_message = [&](bsattack::AttackSession&, const bsproto::Message& m) {
    if (bsproto::MsgTypeOf(m) == bsproto::MsgType::kGetHeaders) ++getheaders_seen;
  };

  // Calm network: a prev-missing block scores but triggers no header pull.
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(getheaders_seen, 0);

  bsproto::TipProbeMsg probe;
  probe.nonce = 0x444;
  probe.tips.push_back({200, crafter.PrevMissingBlock().block.Hash()});
  attacker.Send(*session, probe);
  Settle(3 * bsim::kSecond);
  ASSERT_TRUE(node.Partition().SuspicionHigh());

  // Suspicion high: the same symptom now also elicits a divergence sync —
  // the node asks the (possibly reconverged) sender for its headers. The
  // penalty still lands because this peer holds no good-score credit.
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(getheaders_seen, 1);
  EXPECT_EQ(ScoreOf(session), 20);

  // A second offense inside the per-peer rate-limit window pulls nothing.
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(getheaders_seen, 1);
}

TEST_F(PartitionNodeFixture, StockNodeIgnoresPartitionMachinery) {
  // A default-config node must neither probe nor track suspicion.
  NodeConfig stock;
  Node other(sched, net, 0x0a000003, stock);
  other.Start();
  sched.RunUntil(sched.Now() + 10 * bsim::kSecond);
  EXPECT_EQ(other.TipProbesSent(), 0u);
  EXPECT_DOUBLE_EQ(other.PartitionSuspicion(), 0.0);
  other.Stop();
}

}  // namespace
