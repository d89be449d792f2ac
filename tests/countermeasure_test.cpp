// Live-node tests of the §VIII countermeasures: forgoing ban score
// (threshold→∞ and disabled-checking), the good-score mechanism, and the
// checksum-ordering ablation.
#include <gtest/gtest.h>

#include <memory>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "attack/defamation.hpp"
#include "core/node.hpp"
#include "scenario/attack_worlds.hpp"

namespace {

using namespace bsnet;  // NOLINT
using bsattack::AttackerNode;
using bsattack::AttackSession;
using bsattack::Crafter;

constexpr std::uint32_t kTargetIp = 0x0a000001;
constexpr std::uint32_t kAttackerIp = 0x0a000002;
constexpr std::uint32_t kInnocentIp = 0x0a000003;

/// A target node with `config` and an attacker at its door.
struct PolicyFixture {
  explicit PolicyFixture(NodeConfig config) : net(sched), crafter(config.chain) {
    node = std::make_unique<Node>(sched, net, kTargetIp, config);
    node->Start();
    attacker = std::make_unique<AttackerNode>(sched, net, kAttackerIp,
                                              config.chain.magic);
  }

  explicit PolicyFixture(BanPolicy policy) : PolicyFixture(WithPolicy(policy)) {}
  static NodeConfig WithPolicy(BanPolicy policy) {
    NodeConfig config;
    config.ban_policy = policy;
    return config;
  }

  AttackSession* ReadySession() {
    AttackSession* session = attacker->OpenSession({kTargetIp, 8333});
    sched.RunUntil(sched.Now() + bsim::kSecond);
    return session;
  }

  void Settle() { sched.RunUntil(sched.Now() + bsim::kSecond); }

  bsim::Scheduler sched;
  bsim::Network net;
  Crafter crafter;
  std::unique_ptr<Node> node;
  std::unique_ptr<AttackerNode> attacker;
};

TEST(Countermeasures, ThresholdInfinityNeverBansButKeepsScore) {
  PolicyFixture fx(BanPolicy::kThresholdInfinity);
  AttackSession* session = fx.ReadySession();
  for (int i = 0; i < 5; ++i) {
    fx.attacker->Send(*session, fx.crafter.SegwitInvalidTx());
  }
  fx.Settle();
  EXPECT_FALSE(session->closed);
  EXPECT_EQ(fx.node->PeersBanned(), 0u);
  // The misbehavior tracking still works (peer-health ranking use case)...
  Peer* peer = fx.node->FindPeerByRemote(session->local);
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(fx.node->Tracker().Score(peer->id), 500);
}

TEST(Countermeasures, DisabledPolicyTracksNothing) {
  PolicyFixture fx(BanPolicy::kDisabled);
  AttackSession* session = fx.ReadySession();
  for (int i = 0; i < 5; ++i) {
    fx.attacker->Send(*session, fx.crafter.SegwitInvalidTx());
  }
  fx.Settle();
  EXPECT_FALSE(session->closed);
  Peer* peer = fx.node->FindPeerByRemote(session->local);
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(fx.node->Tracker().Score(peer->id), 0);
}

TEST(Countermeasures, DisablingBanScoreDoesNotAffectNormalOperation) {
  // §VIII: "Disabling the ban score does not affect any of the other Bitcoin
  // operations" — blocks still validate and relay.
  PolicyFixture fx(BanPolicy::kDisabled);
  AttackSession* session = fx.ReadySession();
  const auto valid = fx.crafter.ValidBlock(fx.node->Chain().TipHash());
  fx.attacker->Send(*session, valid);
  fx.Settle();
  EXPECT_TRUE(fx.node->Chain().HaveBlock(valid.block.Hash()));
}

TEST(Countermeasures, GoodScoreProtectsBlockProvidingPeerFromDefamation) {
  PolicyFixture fx(BanPolicy::kGoodScore);
  AttackSession* innocent_like = fx.ReadySession();
  // The "innocent" session first delivers a valid block (earning credit)...
  fx.attacker->Send(*innocent_like, fx.crafter.ValidBlock(fx.node->Chain().TipHash()));
  fx.Settle();
  // ...then "its" identifier emits a 100-point misbehavior (as a Defamation
  // attacker would inject). The credit exempts it from the ban.
  fx.attacker->Send(*innocent_like, fx.crafter.SegwitInvalidTx());
  fx.Settle();
  EXPECT_FALSE(innocent_like->closed);
  EXPECT_EQ(fx.node->PeersBanned(), 0u);
}

TEST(Countermeasures, GoodScoreStillBansCreditlessAttacker) {
  PolicyFixture fx(BanPolicy::kGoodScore);
  AttackSession* attacker_session = fx.ReadySession();
  fx.attacker->Send(*attacker_session, fx.crafter.SegwitInvalidTx());
  fx.Settle();
  EXPECT_TRUE(attacker_session->closed);
  EXPECT_EQ(fx.node->PeersBanned(), 1u);
}

TEST(Countermeasures, ChecksumOrderingAblationClosesBogusLoophole) {
  // Stock ordering: bogus frames are free. Flipped ordering (the ablation):
  // each bad-checksum frame costs the sender ban score.
  NodeConfig config;
  config.checksum_before_misbehavior = false;
  PolicyFixture fx(config);
  AttackSession* session = fx.ReadySession();
  const auto frame = fx.crafter.BogusBlockFrame(config.chain.magic, 1000);
  for (int i = 0; i < 20; ++i) fx.attacker->SendRawFrame(*session, frame);
  fx.Settle();
  // 10 points per bad frame → banned after the 10th.
  EXPECT_TRUE(session->closed);
  EXPECT_GE(fx.node->PeersBanned(), 1u);
}

TEST(Countermeasures, BanDurationConfigurable) {
  NodeConfig config;
  config.ban_duration = bsim::kMinute;
  PolicyFixture fx(config);
  AttackSession* session = fx.ReadySession();
  fx.attacker->Send(*session, fx.crafter.SegwitInvalidTx());
  fx.Settle();
  const Endpoint banned = session->local;
  EXPECT_TRUE(fx.node->Bans().IsBanned(banned, fx.sched.Now()));
  fx.sched.RunUntil(fx.sched.Now() + 2 * bsim::kMinute);
  EXPECT_FALSE(fx.node->Bans().IsBanned(banned, fx.sched.Now()));

  // After expiry the identifier can connect again.
  AttackSession* retry =
      fx.attacker->OpenSession({kTargetIp, 8333}, /*auto_handshake=*/true, banned.port);
  fx.Settle();
  EXPECT_TRUE(retry->SessionReady());
}

TEST(Countermeasures, LowerBanThresholdBansFaster) {
  NodeConfig config;
  config.ban_threshold = 20;
  PolicyFixture fx(config);
  AttackSession* session = fx.ReadySession();
  fx.attacker->Send(*session, fx.crafter.OversizeAddr());  // 20 points == threshold
  fx.Settle();
  EXPECT_TRUE(session->closed);
}

TEST(Countermeasures, GoodScoreDefamationEndToEnd) {
  // Full §VIII story on the wire: under kGoodScore, a post-connection
  // Defamation injection against an outbound peer that has relayed blocks
  // fails to get it banned.
  bsscenario::DefameSpec spec;
  spec.policy = BanPolicy::kGoodScore;
  bsscenario::DefameWorld world(spec);
  ASSERT_EQ(world.target->OutboundCount(), 1u);
  const bsscenario::DefameOutcome out = world.DefamePost();

  ASSERT_TRUE(out.session_found);
  ASSERT_GE(out.good_score, 1);  // the target fetched the innocent's block
  EXPECT_TRUE(out.injected);
  EXPECT_FALSE(out.banned);
  EXPECT_EQ(world.target->PeersBanned(), 0u);
  EXPECT_EQ(world.target->OutboundCount(), 1u);  // the peer connection survived
}

}  // namespace

// NOTE: appended tests for the Core 0.21+ discouragement mode (per-IP,
// non-expiring) vs the 0.20.0 banning regime the paper studies.
namespace {

NodeConfig Discouraging() {
  NodeConfig config;
  config.use_discouragement = true;
  return config;
}

TEST(Discouragement, MisbehaviorDiscouragesWholeIpInsteadOfBanning) {
  PolicyFixture fx(Discouraging());
  AttackSession* session = fx.ReadySession();
  fx.attacker->Send(*session, fx.crafter.SegwitInvalidTx());
  fx.Settle();

  EXPECT_TRUE(session->closed);
  // No timed [IP:Port] ban — the whole IP is discouraged instead.
  EXPECT_EQ(fx.node->Bans().Size(), 0u);
  EXPECT_TRUE(fx.node->Bans().IsDiscouraged(kAttackerIp));

  // The Sybil fresh-port loophole is closed in this regime: ANY new port
  // from the discouraged IP is refused.
  AttackSession* sybil = fx.ReadySession();
  EXPECT_TRUE(sybil->closed);
  EXPECT_FALSE(sybil->SessionReady());
}

TEST(Discouragement, DoesNotExpireWithTime) {
  PolicyFixture fx(Discouraging());
  AttackSession* session = fx.ReadySession();
  fx.attacker->Send(*session, fx.crafter.SegwitInvalidTx());
  fx.sched.RunUntil(fx.sched.Now() + 48 * bsim::kHour);  // well past the 24h ban window
  EXPECT_TRUE(fx.node->Bans().IsDiscouraged(kAttackerIp));
  EXPECT_TRUE(fx.ReadySession()->closed);
}

TEST(Discouragement, OutboundDialsAvoidDiscouragedIps) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.use_discouragement = true;
  config.target_outbound = 1;
  Node node(sched, net, kTargetIp, config);
  node.Bans().Discourage(kInnocentIp);
  NodeConfig pc;
  pc.target_outbound = 0;
  Node discouraged_peer(sched, net, kInnocentIp, pc);
  discouraged_peer.Start();
  node.AddKnownAddress({kInnocentIp, 8333});
  node.Start();
  sched.RunUntil(10 * bsim::kSecond);
  EXPECT_EQ(node.OutboundCount(), 0u);  // the only candidate is discouraged
}

TEST(Discouragement, DefamationBlacklistsTheWholeInnocentIp) {
  // The flip side the paper's Table I comparison hints at: with per-IP
  // discouragement, ONE successful Defamation injection denies the target
  // every identifier of the innocent IP — the full-IP attack needs one
  // identifier instead of 16384.
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig target_config;
  target_config.use_discouragement = true;
  target_config.target_outbound = 1;
  Node target(sched, net, kTargetIp, target_config);
  NodeConfig pc;
  pc.target_outbound = 0;
  Node innocent(sched, net, kInnocentIp, pc);
  innocent.Start();
  target.AddKnownAddress({kInnocentIp, 8333});
  target.Start();
  sched.RunUntil(5 * bsim::kSecond);
  const Peer* outbound = nullptr;
  for (const Peer* p : target.Peers()) {
    if (!p->inbound) outbound = p;
  }
  ASSERT_NE(outbound, nullptr);

  AttackerNode attacker(sched, net, kAttackerIp, target_config.chain.magic);
  Crafter crafter(target_config.chain);
  bsattack::PostConnectionDefamation defamation(attacker, outbound->conn->Local(),
                                                outbound->remote);
  defamation.Arm({bsproto::EncodeMessage(target_config.chain.magic,
                                         crafter.SegwitInvalidTx())});
  innocent.SendToRemoteIp(kTargetIp, bsproto::PingMsg{1});
  sched.RunUntil(sched.Now() + 5 * bsim::kSecond);

  EXPECT_TRUE(target.Bans().IsDiscouraged(kInnocentIp));
  // The target will never redial any port of the innocent IP.
  sched.RunUntil(sched.Now() + 30 * bsim::kSecond);
  EXPECT_EQ(target.OutboundCount(), 0u);
}

}  // namespace
