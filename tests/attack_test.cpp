// Tests for the attack library: BM-DoS flooding (all payload vectors),
// serial Sybil reconnection (Fig. 8 mechanics), pre/post-connection
// Defamation (§IV), and the ICMP flooder.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "attack/defamation.hpp"
#include "attack/eclipse.hpp"
#include "attack/icmpflood.hpp"
#include "attack/traffic.hpp"
#include "core/node.hpp"
#include "scenario/attack_worlds.hpp"

namespace {

using namespace bsattack;  // NOLINT
using bsnet::Node;
using bsnet::NodeConfig;

constexpr std::uint32_t kTargetIp = 0x0a000001;
constexpr std::uint32_t kAttackerIp = 0x0a000002;
constexpr std::uint32_t kInnocentIp = 0x0a000003;

bsscenario::BmDosSpec MiningVictim() {
  bsscenario::BmDosSpec spec;
  spec.cpu.emplace();
  return spec;
}

/// The BM-DoS world with a mining victim, nothing flooding yet.
struct AttackFixture : ::testing::Test {
  bsscenario::BmDosWorld world{MiningVictim()};
  bsim::Scheduler& sched = world.sched;
  bsim::Network& net = world.net;
  Node& node = *world.target;
  AttackerNode& attacker = *world.attacker;
  Crafter crafter{NodeConfig{}.chain};

  /// An innocent node dials the target and completes its handshake. Returns
  /// the innocent's identifier as the target sees it, copied (a ban destroys
  /// the Peer), or a zero endpoint when no session came up.
  Endpoint InnocentDialsIn() {
    NodeConfig config;
    config.target_outbound = 1;
    innocent = std::make_unique<Node>(sched, net, kInnocentIp, config);
    innocent->AddKnownAddress({kTargetIp, 8333});
    innocent->Start();
    sched.RunUntil(5 * bsim::kSecond);
    for (const bsnet::Peer* p : node.Peers()) {
      if (p->remote.ip == kInnocentIp) return p->remote;
    }
    return {};
  }
  std::unique_ptr<Node> innocent;
};

/// The victim's mining rate over [2 s, 7 s] of a flood with `payload`.
double MiningUnderFlood(BmDosConfig::Payload payload) {
  bsscenario::BmDosSpec spec = MiningVictim();
  spec.flood.payload = payload;
  bsscenario::BmDosWorld world(spec);
  world.cpu->SetActiveConnections(0);  // the flood's cost alone
  world.StartFlood();
  world.RunFor(2);  // warm up
  return world.MiningWindow(5).mining_rate_hps;
}

/// The Fig. 8 world with `identifiers` serial Sybil identifiers and an extra
/// delay between messages.
bsscenario::SybilSpec SybilOf(int identifiers, bsim::SimTime extra_delay = 0) {
  bsscenario::SybilSpec spec;
  spec.attack.max_identifiers = identifiers;
  spec.attack.extra_message_delay = extra_delay;
  return spec;
}

// ---------------------------------------------------------------------------
// BM-DoS

TEST_F(AttackFixture, PingFloodIsNeverBanned) {
  world.StartFlood();  // PING at the pipeline cap
  sched.RunUntil(5 * bsim::kSecond);
  world.StopFlood();
  EXPECT_GT(world.Flood().MessagesSent(), 3000u);
  EXPECT_EQ(node.PeersBanned(), 0u);
  EXPECT_EQ(world.Flood().ReadySessions(), 1);
  EXPECT_GE(node.MessageCounts().at(bsproto::MsgType::kPing), 3000u);
}

TEST_F(AttackFixture, PingFloodRateRespectsPipelineCap) {
  BmDosConfig config;
  config.rate_msgs_per_sec = 50'000;  // demanded above the cap
  world.StartFlood(config);
  EXPECT_DOUBLE_EQ(world.Flood().EffectiveRate(), bsnet::kBmDosPipelineCapMsgsPerSec);
  sched.RunUntil(3 * bsim::kSecond);
  world.StopFlood();
  EXPECT_LE(world.Flood().MessagesSent(), 3100u);  // ~1e3/s despite the demand
}

TEST_F(AttackFixture, BogusBlockFloodConsumesVictimCpuWithoutBans) {
  world.cpu->SetActiveConnections(1);  // the flood's session alone
  BmDosConfig config;
  config.payload = BmDosConfig::Payload::kBogusBlock;
  world.StartFlood(config);
  const auto sample = world.MiningWindow(5);
  world.StopFlood();

  EXPECT_EQ(node.PeersBanned(), 0u);
  EXPECT_GT(node.FramesDroppedBadChecksum(), 3000u);
  // 1e3/s of 60 kB bogus blocks should depress mining well below baseline.
  EXPECT_LT(sample.mining_rate_hps, 5.0e5);
}

TEST_F(AttackFixture, PingFloodHurtsLessThanBogusBlockFlood) {
  const double under_ping = MiningUnderFlood(BmDosConfig::Payload::kPing);
  const double under_block = MiningUnderFlood(BmDosConfig::Payload::kBogusBlock);
  EXPECT_GT(under_ping, under_block);  // Fig. 6's ordering
}

TEST_F(AttackFixture, InvalidPowBlockFloodGetsBanned) {
  BmDosConfig config;
  config.payload = BmDosConfig::Payload::kInvalidPowBlock;
  world.StartFlood(config);
  sched.RunUntil(3 * bsim::kSecond);
  world.StopFlood();
  EXPECT_GE(node.PeersBanned(), 1u);  // parseable invalid blocks are punished
}

// ---------------------------------------------------------------------------
// Serial Sybil (Fig. 8 mechanics)

TEST_F(AttackFixture, SerialSybilBansSuccessionOfIdentifiers) {
  bsscenario::SybilWorld sybil(SybilOf(5));
  sybil.Run(10);
  EXPECT_TRUE(sybil.attack->Finished());
  EXPECT_EQ(sybil.attack->IdentifiersBanned(), 5);
  // Every identifier is distinct and every one is banned.
  Node& target = *sybil.target;
  const bsim::SimTime now = sybil.sched.Now();
  std::set<std::uint16_t> ports;
  for (const auto& rec : sybil.attack->Records()) {
    ports.insert(rec.identifier.port);
    EXPECT_TRUE(target.Bans().IsBanned(rec.identifier, now));
  }
  EXPECT_EQ(ports.size(), 5u);
  EXPECT_EQ(target.Bans().BannedPortsOf(kAttackerIp, now), 5u);
}

TEST_F(AttackFixture, NoDelayTimeToBanNearPaperHundredMs) {
  bsscenario::SybilWorld sybil(SybilOf(5));
  const bsscenario::SybilOutcome out = sybil.Run(10);
  ASSERT_TRUE(sybil.attack->Finished());
  // 100 duplicate VERSIONs at the 1 ms pipeline interval ≈ 0.1 s (Fig. 8).
  EXPECT_NEAR(out.mean_time_to_ban, 0.1, 0.02);
}

TEST_F(AttackFixture, OneMsDelayDoublesTimeToBan) {
  bsscenario::SybilWorld sybil(SybilOf(3, bsim::kMillisecond));
  const bsscenario::SybilOutcome out = sybil.Run(10);
  ASSERT_TRUE(sybil.attack->Finished());
  EXPECT_NEAR(out.mean_time_to_ban, 0.2, 0.03);  // Fig. 8's 1 ms series
}

TEST_F(AttackFixture, SybilLoopIsUselessAgainstV22) {
  // The VERSION rules are gone in 0.22.0: duplicates score nothing, nobody
  // gets banned, and the attack spins on one identifier forever.
  bsscenario::SybilSpec spec = SybilOf(3);
  spec.version = bsnet::CoreVersion::kV0_22;
  bsscenario::SybilWorld sybil(spec);
  EXPECT_EQ(sybil.Run(5).banned, 0);
  EXPECT_EQ(sybil.target->PeersBanned(), 0u);
}

// ---------------------------------------------------------------------------
// Defamation

TEST_F(AttackFixture, PreConnectionDefamationBansInnocentIdentifier) {
  // The innocent host exists on the LAN but has no connection to the target.
  bsim::Host innocent(sched, net, kInnocentIp);
  const Endpoint innocent_id{kInnocentIp, 55555};

  PreConnectionDefamation defamation(
      attacker, {kTargetIp, 8333}, innocent_id,
      PreConnectionDefamation::InstantBanFrames(node.Config().chain.magic));
  bool done = false;
  defamation.Run([&]() { done = true; });
  sched.RunUntil(5 * bsim::kSecond);

  EXPECT_TRUE(done);
  EXPECT_TRUE(defamation.HandshakeSucceeded());
  EXPECT_TRUE(node.Bans().IsBanned(innocent_id, sched.Now()));

  // The innocent host now cannot use its own identifier toward the target:
  // TCP may complete (as with real Bitcoin Core, the ban check runs at
  // session-accept time), but the node resets the connection immediately.
  bool reset_by_target = false;
  bsim::TcpConnection* conn =
      innocent.ConnectFrom(55555, {kTargetIp, 8333}, nullptr);
  ASSERT_NE(conn, nullptr);
  conn->on_closed = [&]() { reset_by_target = true; };
  sched.RunUntil(sched.Now() + 10 * bsim::kSecond);
  EXPECT_TRUE(reset_by_target);
}

TEST_F(AttackFixture, PreConnectionDefamationDefeatedByEgressFiltering) {
  bsim::Scheduler sched2;
  bsim::NetworkConfig net_config;
  net_config.block_spoofed_egress = true;  // the ISP/AS countermeasure
  bsim::Network net2(sched2, net_config);
  Node target(sched2, net2, kTargetIp, NodeConfig{});
  target.Start();
  AttackerNode attacker2(sched2, net2, kAttackerIp, NodeConfig{}.chain.magic);

  const Endpoint innocent_id{kInnocentIp, 55555};
  PreConnectionDefamation defamation(
      attacker2, {kTargetIp, 8333}, innocent_id,
      PreConnectionDefamation::InstantBanFrames(NodeConfig{}.chain.magic));
  defamation.Run();
  sched2.RunUntil(5 * bsim::kSecond);
  EXPECT_FALSE(defamation.HandshakeSucceeded());
  EXPECT_FALSE(target.Bans().IsBanned(innocent_id, sched2.Now()));
}

TEST_F(AttackFixture, PostConnectionDefamationBansConnectedInboundPeer) {
  // The innocent peer is a real node with a live inbound session to the
  // target. Algorithm 1: the attacker learns the 4-tuple by sniffing; here
  // we look up the innocent's ephemeral port the same way its sniffer would.
  const Endpoint innocent_id = InnocentDialsIn();
  ASSERT_EQ(innocent->OutboundCount(), 1u);
  ASSERT_EQ(innocent_id.ip, kInnocentIp);

  PostConnectionDefamation defamation(attacker, {kTargetIp, 8333}, innocent_id);
  Crafter crafter2(node.Config().chain);
  defamation.Arm({bsproto::EncodeMessage(node.Config().chain.magic,
                                         crafter2.SegwitInvalidTx())});

  // Trigger traffic on the connection so the sniffer learns the live state.
  innocent->SendToRemoteIp(kTargetIp, bsproto::PingMsg{7});
  sched.RunUntil(sched.Now() + 5 * bsim::kSecond);

  EXPECT_TRUE(defamation.SequenceKnown());
  EXPECT_TRUE(defamation.Injected());
  EXPECT_TRUE(node.Bans().IsBanned(innocent_id, sched.Now()));
  EXPECT_GE(node.PeersBanned(), 1u);
}

TEST_F(AttackFixture, PostConnectionDefamationOfOutboundPeerTriggersReconnect) {
  // Target holds outbound connections to two innocent peer nodes; defaming
  // one forces the target to reconnect — the detection feature c.
  bsim::Scheduler sched2;
  bsim::Network net2(sched2);
  NodeConfig target_config;
  target_config.target_outbound = 1;
  Node target(sched2, net2, kTargetIp, target_config, nullptr);

  NodeConfig peer_config;
  peer_config.target_outbound = 0;
  Node peer_a(sched2, net2, 0x0a000010, peer_config);
  Node peer_b(sched2, net2, 0x0a000011, peer_config);
  peer_a.Start();
  peer_b.Start();
  target.AddKnownAddress({peer_a.Ip(), 8333});
  target.AddKnownAddress({peer_b.Ip(), 8333});
  target.Start();
  sched2.RunUntil(5 * bsim::kSecond);
  ASSERT_EQ(target.OutboundCount(), 1u);

  const bsnet::Peer* outbound = nullptr;
  for (const bsnet::Peer* p : target.Peers()) {
    if (!p->inbound) outbound = p;
  }
  ASSERT_NE(outbound, nullptr);
  const Endpoint victim_id = outbound->remote;  // [peer_ip:8333]

  AttackerNode attacker2(sched2, net2, kAttackerIp, target_config.chain.magic);
  // For an outbound connection the target side uses an ephemeral port, which
  // the attacker learns from sniffed segments — read it off the connection
  // the same way.
  const Endpoint target_ep = outbound->conn->Local();
  PostConnectionDefamation defamation(attacker2, target_ep, victim_id);
  Crafter crafter2(target_config.chain);
  defamation.Arm({bsproto::EncodeMessage(target_config.chain.magic,
                                         crafter2.SegwitInvalidTx())});

  // The victim peer sends something so the attacker learns the TCP state.
  peer_a.SendToRemoteIp(kTargetIp, bsproto::PingMsg{1});
  peer_b.SendToRemoteIp(kTargetIp, bsproto::PingMsg{1});
  sched2.RunUntil(sched2.Now() + 10 * bsim::kSecond);

  EXPECT_TRUE(target.Bans().IsBanned(victim_id, sched2.Now()));
  // The target replaced the banned outbound peer with the other one.
  EXPECT_EQ(target.OutboundCount(), 1u);
  EXPECT_GE(target.OutboundReconnects(), 1u);
}

// ---------------------------------------------------------------------------
// ICMP flooder

TEST_F(AttackFixture, IcmpFloodDeliversAtConfiguredRate) {
  IcmpFloodConfig config;
  config.rate_pkts_per_sec = 10'000;
  IcmpFlooder flooder(attacker, kTargetIp, config);
  flooder.Start();
  sched.RunUntil(sched.Now() + 2 * bsim::kSecond);
  flooder.Stop();
  EXPECT_NEAR(static_cast<double>(flooder.PacketsSent()), 20'000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(node.IcmpPacketsReceived()), 20'000.0, 300.0);
}

TEST_F(AttackFixture, IcmpFloodDepressesMiningLessThanBmDosAtSameRate) {
  // §VI-C: at 1e3/s, application-layer PING hurts more than kernel ICMP.
  IcmpFloodConfig ic;
  ic.rate_pkts_per_sec = 1000;
  IcmpFlooder icmp(attacker, kTargetIp, ic);
  icmp.Start();
  world.RunFor(2);
  const double under_icmp = world.MiningWindow(5).mining_rate_hps;
  EXPECT_LT(MiningUnderFlood(BmDosConfig::Payload::kPing), under_icmp);
}

// ---------------------------------------------------------------------------
// Traffic generator

TEST(TrafficGenerator, ProducesCalibratedMessageRate) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig target_config;
  target_config.target_outbound = 8;
  Node target(sched, net, kTargetIp, target_config);

  std::vector<std::unique_ptr<Node>> peer_storage;
  std::vector<Node*> peers;
  for (int i = 0; i < 12; ++i) {
    NodeConfig pc;
    pc.target_outbound = 0;
    auto peer = std::make_unique<Node>(sched, net, 0x0a000100 + i, pc);
    peer->Start();
    target.AddKnownAddress({peer->Ip(), 8333});
    peers.push_back(peer.get());
    peer_storage.push_back(std::move(peer));
  }
  target.Start();
  sched.RunUntil(10 * bsim::kSecond);
  ASSERT_EQ(target.OutboundCount(), 8u);

  MainnetTrafficGenerator traffic(sched, peers, target, TrafficConfig{});
  traffic.Start();
  const std::uint64_t before = target.TotalMessagesReceived();
  sched.RunUntil(sched.Now() + 10 * bsim::kMinute);
  traffic.Stop();
  const double per_minute =
      static_cast<double>(target.TotalMessagesReceived() - before) / 10.0;
  // The paper's normal envelope: τ_n = [252, 390] messages/minute.
  EXPECT_GT(per_minute, 252.0);
  EXPECT_LT(per_minute, 390.0);
  EXPECT_EQ(target.PeersBanned(), 0u);  // honest traffic never triggers bans
}

}  // namespace

// NOTE: appended tests for the Eclipse composition (§II motivation).
namespace {

struct EclipseFixture : ::testing::Test {
  void SetUp() override {
    net = std::make_unique<bsim::Network>(sched);
    NodeConfig victim_config;
    victim_config.target_outbound = 4;
    victim_config.max_inbound = 8;
    victim = std::make_unique<Node>(sched, *net, kTargetIp, victim_config);

    NodeConfig pc;
    pc.target_outbound = 0;
    for (int i = 0; i < 6; ++i) {  // honest Mainnet stand-ins
      auto peer = std::make_unique<Node>(sched, *net, 0x0a000100 + i, pc);
      peer->Start();
      victim->AddKnownAddress({peer->Ip(), 8333});
      honest.push_back(peer.get());
      storage.push_back(std::move(peer));
    }
    for (int i = 0; i < 12; ++i) {  // attacker-controlled infrastructure
      auto node = std::make_unique<Node>(sched, *net, 0x0ae00000 + i, pc);
      node->Start();
      infrastructure.push_back(node.get());
      storage.push_back(std::move(node));
    }
    victim->Start();
    sched.RunUntil(10 * bsim::kSecond);
    ASSERT_EQ(victim->OutboundCount(), 4u);

    attacker = std::make_unique<bsattack::AttackerNode>(sched, *net, 0x0ae000ff,
                                                        victim_config.chain.magic);
    traffic = std::make_unique<MainnetTrafficGenerator>(sched, honest, *victim,
                                                        bsattack::TrafficConfig{});
    traffic->Start();
  }

  bsim::Scheduler sched;
  std::unique_ptr<bsim::Network> net;
  std::unique_ptr<Node> victim;
  std::vector<std::unique_ptr<Node>> storage;
  std::vector<Node*> honest;
  std::vector<Node*> infrastructure;
  std::unique_ptr<bsattack::AttackerNode> attacker;
  std::unique_ptr<MainnetTrafficGenerator> traffic;
};

TEST_F(EclipseFixture, CompositionEclipsesTheVictim) {
  bsattack::EclipseConfig config;
  config.inbound_sessions = 8;  // == the victim's max_inbound
  bsattack::EclipseAttack eclipse(*attacker, *victim, infrastructure, config);
  eclipse.Start();

  sched.RunUntil(sched.Now() + 5 * bsim::kMinute);

  // Inbound side: the Sybil sessions hold every slot.
  EXPECT_EQ(eclipse.InboundSessionsHeld(), 8);
  EXPECT_EQ(victim->InboundCount(), 8u);
  // The poisoning stayed under every ban-score rule.
  EXPECT_GT(eclipse.AddrEntriesGossiped(), 1000u);
  EXPECT_FALSE(victim->Bans().IsBanned({attacker->Ip(), 0}, sched.Now()));
  // Outbound side: Defamation evicted honest peers; the poisoned table
  // refills toward attacker infrastructure.
  EXPECT_GE(eclipse.OutboundPeersDefamed(), 2);
  EXPECT_GE(eclipse.ControlFraction(), 0.75);
  // Ban score punished nobody on the attacker side along the way.
  int attacker_scores = 0;
  for (const bsnet::Peer* p : victim->Peers()) {
    if (p->remote.ip == attacker->Ip()) {
      attacker_scores += victim->Tracker().Score(p->id);
    }
  }
  EXPECT_EQ(attacker_scores, 0);
}

TEST_F(EclipseFixture, WithoutDefamationTheOutboundSideResists) {
  bsattack::EclipseConfig config;
  config.inbound_sessions = 8;
  config.defame_outbound = false;  // poisoning + occupation only
  bsattack::EclipseAttack eclipse(*attacker, *victim, infrastructure, config);
  eclipse.Start();
  sched.RunUntil(sched.Now() + 3 * bsim::kMinute);

  // Established outbound connections persist, so the honest view largely
  // survives even though the address table is poisoned (natural churn can
  // cost the odd slot): the Defamation lever is what completes the eclipse.
  std::size_t honest_outbound = 0;
  for (const bsnet::Peer* p : victim->Peers()) {
    if (!p->inbound && p->HandshakeComplete() && p->remote.ip < 0x0ae00000) {
      ++honest_outbound;
    }
  }
  EXPECT_GE(honest_outbound, 3u);
  EXPECT_FALSE(eclipse.FullyEclipsed());
}

}  // namespace

// NOTE: appended Defamation payload-variant tests: any 100-point rule makes a
// one-shot injection; 20-point rules need five.
namespace {

TEST_F(AttackFixture, PostConnectionDefamationWithMutatedBlockPayload) {
  const Endpoint victim_id = InnocentDialsIn();
  ASSERT_EQ(victim_id.ip, kInnocentIp);

  PostConnectionDefamation defamation(attacker, {kTargetIp, 8333}, victim_id);
  defamation.Arm({bsproto::EncodeMessage(
      node.Config().chain.magic, crafter.MutatedBlock(node.Chain().TipHash()))});
  innocent->SendToRemoteIp(kTargetIp, bsproto::PingMsg{3});
  sched.RunUntil(sched.Now() + 5 * bsim::kSecond);
  EXPECT_TRUE(node.Bans().IsBanned(victim_id, sched.Now()));
}

TEST_F(AttackFixture, PostConnectionDefamationWithOversizeRuleNeedsFiveInjections) {
  const Endpoint victim_id = InnocentDialsIn();
  ASSERT_EQ(victim_id.ip, kInnocentIp);

  // Five oversize-ADDR frames (+20 each) in one injected burst.
  std::vector<bsutil::ByteVec> frames;
  for (int i = 0; i < 5; ++i) {
    frames.push_back(
        bsproto::EncodeMessage(node.Config().chain.magic, crafter.OversizeAddr()));
  }
  PostConnectionDefamation defamation(attacker, {kTargetIp, 8333}, victim_id);
  defamation.Arm(std::move(frames));
  innocent->SendToRemoteIp(kTargetIp, bsproto::PingMsg{4});
  sched.RunUntil(sched.Now() + 10 * bsim::kSecond);
  EXPECT_TRUE(node.Bans().IsBanned(victim_id, sched.Now()));
}

}  // namespace
