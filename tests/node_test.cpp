// Live-node tests: the full receive pipeline on the simulator — handshake
// rules, every Table I rule triggered by crafted wire messages, the checksum
// gate, banning and reconnection-refusal, and outbound maintenance.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "core/node.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace bsnet;  // NOLINT
using bsattack::AttackerNode;
using bsattack::AttackSession;
using bsattack::Crafter;

constexpr std::uint32_t kTargetIp = 0x0a000001;
constexpr std::uint32_t kAttackerIp = 0x0a000002;

struct NodeFixture : ::testing::Test {
  NodeFixture() : NodeFixture(NodeConfig{}) {}
  explicit NodeFixture(NodeConfig config)
      : net(sched),
        node(sched, net, kTargetIp, config),
        attacker(sched, net, kAttackerIp, config.chain.magic),
        crafter(config.chain) {
    node.Start();
  }

  /// Open a handshake-complete session from the attacker to the node.
  AttackSession* ReadySession() {
    AttackSession* session = attacker.OpenSession({kTargetIp, 8333});
    sched.RunUntil(sched.Now() + bsim::kSecond);
    EXPECT_TRUE(session->SessionReady());
    return session;
  }

  /// The node's view of the attacker session.
  Peer* NodePeer(AttackSession* session) {
    return node.FindPeerByRemote(session->local);
  }

  int ScoreOf(AttackSession* session) {
    Peer* peer = NodePeer(session);
    return peer == nullptr ? -1 : node.Tracker().Score(peer->id);
  }

  void Settle() { sched.RunUntil(sched.Now() + bsim::kSecond); }

  bsim::Scheduler sched;
  bsim::Network net;
  Node node;
  AttackerNode attacker;
  Crafter crafter;
};

// ---------------------------------------------------------------------------
// Handshake

TEST_F(NodeFixture, InboundHandshakeCompletes) {
  AttackSession* session = ReadySession();
  Peer* peer = NodePeer(session);
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->HandshakeComplete());
  EXPECT_TRUE(peer->inbound);
  EXPECT_EQ(node.InboundCount(), 1u);
}

// Values a default node runs with that no NodeConfig field selects: the
// VERSION it announces, the tracker cap, and the partition monitor's clock.
TEST_F(NodeFixture, DefaultNodeRunsWithFixedConstants) {
  AttackSession* session = attacker.OpenSession({kTargetIp, 8333});
  std::optional<bsproto::VersionMsg> version;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* v = std::get_if<bsproto::VersionMsg>(&msg)) version = *v;
  };
  Settle();
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(version->version, bsproto::kProtocolVersion);
  EXPECT_EQ(version->services, bsproto::kNodeNetwork | bsproto::kNodeWitness);
  EXPECT_EQ(node.Tracker().MaxEntries(), 65536u);
  EXPECT_EQ(node.Partition().Params().ladder_step, 5 * bsim::kSecond);
  EXPECT_EQ(node.Partition().Params().expected_block_interval, 3 * bsim::kSecond);
}

TEST_F(NodeFixture, DuplicateVersionScoresOneEach) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, bsproto::VersionMsg{});
  attacker.Send(*session, bsproto::VersionMsg{});
  Settle();
  EXPECT_EQ(ScoreOf(session), 2);
}

TEST_F(NodeFixture, MessageBeforeVersionScoresOne) {
  AttackSession* session = attacker.OpenSession({kTargetIp, 8333},
                                                /*auto_handshake=*/false);
  Settle();
  attacker.Send(*session, bsproto::PingMsg{1});
  Settle();
  EXPECT_EQ(ScoreOf(session), 1);
}

TEST_F(NodeFixture, MessageBeforeVerackScoresOneInV20) {
  AttackSession* session = attacker.OpenSession({kTargetIp, 8333},
                                                /*auto_handshake=*/false);
  Settle();
  attacker.Send(*session, bsproto::VersionMsg{});  // no verack afterwards
  Settle();
  attacker.Send(*session, bsproto::PingMsg{1});
  Settle();
  EXPECT_EQ(ScoreOf(session), 1);
}

TEST_F(NodeFixture, PingPongAfterHandshake) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, bsproto::PingMsg{42});
  Settle();
  // The node replied PONG; no misbehavior for PING.
  EXPECT_EQ(ScoreOf(session), 0);
  EXPECT_GE(node.MessageCounts().at(bsproto::MsgType::kPing), 1u);
}

// ---------------------------------------------------------------------------
// Table I rules triggered live

TEST_F(NodeFixture, OversizeAddrScoresTwenty) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OversizeAddr());
  Settle();
  EXPECT_EQ(ScoreOf(session), 20);
}

TEST_F(NodeFixture, OversizeInvScoresTwenty) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OversizeInv());
  Settle();
  EXPECT_EQ(ScoreOf(session), 20);
}

TEST_F(NodeFixture, OversizeGetDataScoresTwenty) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OversizeGetData());
  Settle();
  EXPECT_EQ(ScoreOf(session), 20);
}

TEST_F(NodeFixture, OversizeHeadersScoresTwenty) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OversizeHeaders());
  Settle();
  EXPECT_EQ(ScoreOf(session), 20);
}

TEST_F(NodeFixture, NonContinuousHeadersScoresTwenty) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.NonContinuousHeaders());
  Settle();
  EXPECT_EQ(ScoreOf(session), 20);
}

TEST_F(NodeFixture, TenNonConnectingHeadersScoreTwenty) {
  AttackSession* session = ReadySession();
  for (int i = 0; i < bsproto::kMaxUnconnectingHeaders - 1; ++i) {
    attacker.Send(*session, crafter.NonConnectingHeaders());
  }
  Settle();
  EXPECT_EQ(ScoreOf(session), 0) << "tolerated until the 10th";
  attacker.Send(*session, crafter.NonConnectingHeaders());
  Settle();
  EXPECT_EQ(ScoreOf(session), 20);
}

TEST_F(NodeFixture, SegwitInvalidTxBansImmediately) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.SegwitInvalidTx());
  Settle();
  // Score 100 → banned → disconnected.
  EXPECT_TRUE(session->closed);
  EXPECT_TRUE(node.Bans().IsBanned(session->local, sched.Now()));
  EXPECT_EQ(node.PeersBanned(), 1u);
}

TEST_F(NodeFixture, MutatedBlockBansImmediately) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.MutatedBlock(node.Chain().TipHash()));
  Settle();
  EXPECT_TRUE(session->closed);
  EXPECT_TRUE(node.Bans().IsBanned(session->local, sched.Now()));
}

TEST_F(NodeFixture, PrevMissingBlockScoresTen) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.PrevMissingBlock());
  Settle();
  EXPECT_EQ(ScoreOf(session), 10);
  EXPECT_FALSE(session->closed);
}

TEST_F(NodeFixture, PrevInvalidBlockBans) {
  AttackSession* session = ReadySession();
  // First make the node cache an invalid block without reaching the ban
  // threshold from this session: prev-missing child of the invalid one is
  // not possible, so use a fresh session for the invalid parent.
  const auto bad_parent = crafter.MutatedBlock(node.Chain().TipHash());
  AttackSession* sacrificial = ReadySession();
  attacker.Send(*sacrificial, bad_parent);
  Settle();
  ASSERT_TRUE(node.Chain().IsKnownInvalid(bad_parent.block.Hash()));

  attacker.Send(*session, crafter.ChildOf(bad_parent.block.Hash()));
  Settle();
  EXPECT_TRUE(session->closed);
  EXPECT_TRUE(node.Bans().IsBanned(session->local, sched.Now()));
}

TEST_F(NodeFixture, CachedInvalidScopeIsOutboundOnly) {
  // An inbound peer re-offering a cached-invalid block is NOT punished
  // (Table I scopes the rule to outbound peers).
  const auto bad = crafter.MutatedBlock(node.Chain().TipHash());
  AttackSession* first = ReadySession();
  attacker.Send(*first, bad);
  Settle();
  ASSERT_TRUE(node.Chain().IsKnownInvalid(bad.block.Hash()));

  AttackSession* second = ReadySession();
  attacker.Send(*second, bad);
  Settle();
  EXPECT_EQ(ScoreOf(second), 0);
  EXPECT_FALSE(second->closed);
}

TEST_F(NodeFixture, InvalidCompactBlockBans) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.InvalidCompactBlock(node.Chain().TipHash()));
  Settle();
  EXPECT_TRUE(session->closed);
}

TEST_F(NodeFixture, OutOfBoundsGetBlockTxnBans) {
  // Give the node a block first so GETBLOCKTXN resolves it.
  AttackSession* feeder = ReadySession();
  const auto valid = crafter.ValidBlock(node.Chain().TipHash());
  attacker.Send(*feeder, valid);
  Settle();
  ASSERT_TRUE(node.Chain().HaveBlock(valid.block.Hash()));

  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OutOfBoundsGetBlockTxn(valid.block.Hash(),
                                                          valid.block.txs.size()));
  Settle();
  EXPECT_TRUE(session->closed);
  EXPECT_TRUE(node.Bans().IsBanned(session->local, sched.Now()));
}

TEST_F(NodeFixture, GetBlockTxnForUnknownBlockIgnored) {
  AttackSession* session = ReadySession();
  bscrypto::Hash256 unknown;
  unknown.Data()[0] = 0x77;
  attacker.Send(*session, crafter.OutOfBoundsGetBlockTxn(unknown, 1));
  Settle();
  EXPECT_EQ(ScoreOf(session), 0);
}

TEST_F(NodeFixture, OversizeFilterLoadBans) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OversizeFilterLoad());
  Settle();
  EXPECT_TRUE(session->closed);
}

TEST_F(NodeFixture, OversizeFilterAddBans) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.OversizeFilterAdd());
  Settle();
  EXPECT_TRUE(session->closed);
}

TEST_F(NodeFixture, FilterAddVersionGateBansInV20) {
  // Our attacker speaks protocol 70015 >= 70011, so any in-bounds FILTERADD
  // trips the 0.20.0-only version-gate rule.
  AttackSession* session = ReadySession();
  bsproto::FilterAddMsg msg;
  msg.data = {0x01, 0x02};
  attacker.Send(*session, msg);
  Settle();
  EXPECT_TRUE(session->closed);
}

TEST_F(NodeFixture, ValidBlockAcceptedAndCreditsGoodScore) {
  AttackSession* session = ReadySession();
  const auto valid = crafter.ValidBlock(node.Chain().TipHash());
  attacker.Send(*session, valid);
  Settle();
  EXPECT_TRUE(node.Chain().HaveBlock(valid.block.Hash()));
  Peer* peer = NodePeer(session);
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(node.Tracker().GoodScore(peer->id), 1);
  EXPECT_EQ(ScoreOf(session), 0);
}

// ---------------------------------------------------------------------------
// The checksum gate (BM-DoS "forgoing ban score")

TEST_F(NodeFixture, BogusBlockFrameNeverPunished) {
  AttackSession* session = ReadySession();
  const auto frame = crafter.BogusBlockFrame(node.Config().chain.magic, 60'000);
  for (int i = 0; i < 50; ++i) attacker.SendRawFrame(*session, frame);
  Settle();
  EXPECT_EQ(ScoreOf(session), 0);
  EXPECT_FALSE(session->closed);
  EXPECT_EQ(node.FramesDroppedBadChecksum(), 50u);
  EXPECT_FALSE(node.Bans().IsBanned(session->local, sched.Now()));
}

TEST_F(NodeFixture, UnknownCommandNeverPunished) {
  AttackSession* session = ReadySession();
  const auto frame = crafter.UnknownCommandFrame(node.Config().chain.magic, 100);
  for (int i = 0; i < 50; ++i) attacker.SendRawFrame(*session, frame);
  Settle();
  EXPECT_EQ(ScoreOf(session), 0);
  EXPECT_EQ(node.FramesIgnoredUnknownCommand(), 50u);
}

TEST_F(NodeFixture, InvalidPowBlockWithValidChecksumBans) {
  // Vector 3's premise: a parseable invalid block IS punished; only the
  // bad-checksum variant evades the tracker.
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.InvalidPowBlock(node.Chain().TipHash()));
  Settle();
  EXPECT_TRUE(session->closed);
}

// ---------------------------------------------------------------------------
// Banning filter semantics

TEST_F(NodeFixture, BannedIdentifierCannotReconnect) {
  AttackSession* session = ReadySession();
  const Endpoint banned_id = session->local;
  attacker.Send(*session, crafter.SegwitInvalidTx());
  Settle();
  ASSERT_TRUE(session->closed);

  // Reconnecting from the same [IP:Port] is refused.
  AttackSession* retry = attacker.OpenSession({kTargetIp, 8333},
                                              /*auto_handshake=*/true,
                                              banned_id.port);
  Settle();
  EXPECT_TRUE(retry->closed);
  EXPECT_FALSE(retry->SessionReady());
}

TEST_F(NodeFixture, FreshSybilIdentifierConnectsAfterBan) {
  AttackSession* session = ReadySession();
  attacker.Send(*session, crafter.SegwitInvalidTx());
  Settle();
  ASSERT_TRUE(session->closed);

  // Same IP, next port: the Sybil loophole.
  AttackSession* sybil = ReadySession();
  EXPECT_TRUE(sybil->SessionReady());
  EXPECT_FALSE(sybil->closed);
}

TEST_F(NodeFixture, BanExpiresAfterConfiguredDuration) {
  AttackSession* session = ReadySession();
  const Endpoint banned_id = session->local;
  attacker.Send(*session, crafter.SegwitInvalidTx());
  Settle();
  ASSERT_TRUE(node.Bans().IsBanned(banned_id, sched.Now()));
  EXPECT_FALSE(node.Bans().IsBanned(banned_id, sched.Now() + 25 * bsim::kHour));
}

// ---------------------------------------------------------------------------
// Outbound maintenance

TEST(NodeOutbound, FillsOutboundSlotsFromAddrMan) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.target_outbound = 3;
  Node target(sched, net, kTargetIp, config);

  std::vector<std::unique_ptr<Node>> peers;
  for (int i = 0; i < 5; ++i) {
    NodeConfig pc;
    pc.target_outbound = 0;
    auto peer = std::make_unique<Node>(sched, net, 0x0a000010 + i, pc);
    peer->Start();
    target.AddKnownAddress({peer->Ip(), 8333});
    peers.push_back(std::move(peer));
  }
  target.Start();
  sched.RunUntil(10 * bsim::kSecond);
  EXPECT_EQ(target.OutboundCount(), 3u);
  EXPECT_EQ(target.OutboundReconnects(), 0u);  // initial fill is not churn
}

TEST(NodeOutbound, ReplacesDroppedOutboundPeerAndCountsReconnect) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.target_outbound = 2;
  Node target(sched, net, kTargetIp, config);

  std::vector<std::unique_ptr<Node>> peers;
  for (int i = 0; i < 4; ++i) {
    NodeConfig pc;
    pc.target_outbound = 0;
    auto peer = std::make_unique<Node>(sched, net, 0x0a000020 + i, pc);
    peer->Start();
    target.AddKnownAddress({peer->Ip(), 8333});
    peers.push_back(std::move(peer));
  }
  target.Start();
  sched.RunUntil(10 * bsim::kSecond);
  ASSERT_EQ(target.OutboundCount(), 2u);

  // A remote peer drops the target's session.
  bool dropped = false;
  for (auto& peer : peers) {
    for (const Peer* p : peer->Peers()) {
      if (p->remote.ip == kTargetIp) {
        peer->DisconnectPeer(p->id);
        dropped = true;
        break;
      }
    }
    if (dropped) break;
  }
  ASSERT_TRUE(dropped);
  sched.RunUntil(30 * bsim::kSecond);
  EXPECT_EQ(target.OutboundCount(), 2u);  // replaced
  EXPECT_GE(target.OutboundReconnects(), 1u);
}

TEST(NodeOutbound, InboundCapacityEnforced) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.max_inbound = 2;
  Node target(sched, net, kTargetIp, config);
  target.Start();
  AttackerNode attacker(sched, net, kAttackerIp, config.chain.magic);
  std::vector<AttackSession*> sessions;
  for (int i = 0; i < 4; ++i) {
    sessions.push_back(attacker.OpenSession({kTargetIp, 8333}));
  }
  sched.RunUntil(5 * bsim::kSecond);
  int ready = 0;
  for (auto* s : sessions) ready += (!s->closed && s->SessionReady()) ? 1 : 0;
  EXPECT_EQ(ready, 2);
  EXPECT_EQ(target.InboundCount(), 2u);
}

// ---------------------------------------------------------------------------
// Relay

TEST(NodeRelay, BlockPropagatesViaInvGetDataBlock) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.target_outbound = 1;
  Node a(sched, net, 0x0a000001, config);
  NodeConfig bc;
  bc.target_outbound = 0;
  Node b(sched, net, 0x0a000002, bc);
  b.Start();
  a.AddKnownAddress({b.Ip(), 8333});
  a.Start();
  sched.RunUntil(5 * bsim::kSecond);
  ASSERT_EQ(a.OutboundCount(), 1u);

  const auto block = a.MineAndRelay();
  ASSERT_TRUE(block.has_value());
  sched.RunUntil(10 * bsim::kSecond);
  EXPECT_TRUE(b.Chain().HaveBlock(block->Hash()));
  EXPECT_EQ(b.Chain().TipHash(), block->Hash());
}

}  // namespace

// NOTE: appended reply-coverage tests: the node's responses observed from
// the client side of the session.
namespace {

struct ReplyFixture : NodeFixture {
  /// Collect every message the node sends back on `session`.
  std::vector<bsproto::Message> Collect(AttackSession* session) {
    std::vector<bsproto::Message> out;
    session->on_message = [&out](AttackSession&, const bsproto::Message& msg) {
      out.push_back(msg);
    };
    return out;
  }
};

TEST_F(ReplyFixture, GetHeadersAnswersWithActiveChain) {
  for (int i = 0; i < 3; ++i) node.MineAndRelay();
  AttackSession* session = ReadySession();
  std::vector<bsproto::HeadersMsg> replies;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* h = std::get_if<bsproto::HeadersMsg>(&msg)) replies.push_back(*h);
  };
  bsproto::GetHeadersMsg request;  // empty locator -> everything above genesis
  attacker.Send(*session, request);
  Settle();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].headers.size(), 3u);
  EXPECT_EQ(replies[0].headers.back().Hash(), node.Chain().TipHash());
}

TEST_F(ReplyFixture, GetAddrAnswersWithKnownAddresses) {
  for (int i = 0; i < 5; ++i) {
    node.AddKnownAddress({0x0a000100 + static_cast<std::uint32_t>(i), 8333});
  }
  AttackSession* session = ReadySession();
  std::vector<bsproto::AddrMsg> replies;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* a = std::get_if<bsproto::AddrMsg>(&msg)) replies.push_back(*a);
  };
  attacker.Send(*session, bsproto::GetAddrMsg{});
  Settle();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_GE(replies[0].addresses.size(), 1u);
  EXPECT_LE(replies[0].addresses.size(), bsproto::kMaxAddrToSend);
}

TEST_F(ReplyFixture, MempoolAnswersWithTxInventory) {
  const auto tx1 = crafter.ValidTx();
  const auto tx2 = crafter.ValidTx();
  ASSERT_EQ(node.Pool().AcceptTransaction(tx1.tx), bschain::TxResult::kOk);
  ASSERT_EQ(node.Pool().AcceptTransaction(tx2.tx), bschain::TxResult::kOk);
  AttackSession* session = ReadySession();
  std::vector<bsproto::InvMsg> replies;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* inv = std::get_if<bsproto::InvMsg>(&msg)) replies.push_back(*inv);
  };
  attacker.Send(*session, bsproto::MempoolMsg{});
  Settle();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].inventory.size(), 2u);
  for (const auto& item : replies[0].inventory) {
    EXPECT_EQ(item.type, bsproto::InvType::kTx);
  }
}

TEST_F(ReplyFixture, GetDataForUnknownItemsAnswersNotFound) {
  AttackSession* session = ReadySession();
  std::vector<bsproto::NotFoundMsg> replies;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* nf = std::get_if<bsproto::NotFoundMsg>(&msg)) replies.push_back(*nf);
  };
  bsproto::GetDataMsg request;
  bscrypto::Hash256 unknown;
  unknown.Data()[0] = 0x99;
  request.inventory.push_back({bsproto::InvType::kTx, unknown});
  request.inventory.push_back({bsproto::InvType::kBlock, unknown});
  attacker.Send(*session, request);
  Settle();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].inventory.size(), 2u);
}

TEST_F(ReplyFixture, GetBlocksAnswersWithBlockInventory) {
  for (int i = 0; i < 4; ++i) node.MineAndRelay();
  AttackSession* session = ReadySession();
  std::vector<bsproto::InvMsg> replies;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* inv = std::get_if<bsproto::InvMsg>(&msg)) replies.push_back(*inv);
  };
  bsproto::GetBlocksMsg request;
  attacker.Send(*session, request);
  Settle();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].inventory.size(), 4u);
  EXPECT_EQ(replies[0].inventory[0].type, bsproto::InvType::kBlock);
}

TEST_F(ReplyFixture, InvForUnknownTxTriggersGetData) {
  AttackSession* session = ReadySession();
  std::vector<bsproto::GetDataMsg> replies;
  session->on_message = [&](AttackSession&, const bsproto::Message& msg) {
    if (const auto* gd = std::get_if<bsproto::GetDataMsg>(&msg)) replies.push_back(*gd);
  };
  const auto tx = crafter.ValidTx();
  bsproto::InvMsg announce;
  announce.inventory.push_back({bsproto::InvType::kTx, tx.tx.Txid()});
  attacker.Send(*session, announce);
  Settle();
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].inventory.size(), 1u);
  EXPECT_EQ(replies[0].inventory[0].hash, tx.tx.Txid());

  // Announcing it again after delivery produces no further request.
  attacker.Send(*session, tx);
  Settle();
  attacker.Send(*session, announce);
  Settle();
  EXPECT_EQ(replies.size(), 1u);
}

TEST_F(ReplyFixture, DropAndRebuildDisconnectsEveryPeer) {
  AttackSession* a = ReadySession();
  AttackSession* b = ReadySession();
  ASSERT_EQ(node.InboundCount(), 2u);
  node.DropAndRebuildConnections();
  Settle();
  EXPECT_TRUE(a->closed);
  EXPECT_TRUE(b->closed);
  EXPECT_EQ(node.InboundCount(), 0u);
  // Not a punishment: nobody is banned and both can reconnect.
  EXPECT_EQ(node.Bans().Size(), 0u);
  AttackSession* again = ReadySession();
  EXPECT_TRUE(again->SessionReady());
}

TEST_F(ReplyFixture, SendToRemoteIpFailsWithoutSession) {
  EXPECT_FALSE(node.SendToRemoteIp(0x0afffff0, bsproto::PingMsg{1}));
  AttackSession* session = ReadySession();
  ASSERT_TRUE(session->SessionReady());
  EXPECT_TRUE(node.SendToRemoteIp(kAttackerIp, bsproto::PingMsg{1}));
}

// ---------------------------------------------------------------------------
// Stale-tip emergency-slot accounting (regression). The extra outbound slot
// opened during a stale-tip episode must be released once the tip advances,
// even when EVERY outbound peer has delivered a block. The original eviction
// only considered never-delivered peers, so in that state each episode leaked
// one outbound slot permanently.

TEST(StaleTipSlots, EmergencySlotReleasedAcrossRepeatedEpisodes) {
  bsim::Scheduler sched;
  bsim::Network net(sched);

  NodeConfig victim_cfg;
  victim_cfg.target_outbound = 2;
  victim_cfg.enable_stale_tip_recovery = true;
  victim_cfg.stale_tip_timeout = 4 * bsim::kSecond;

  NodeConfig peer_cfg;
  peer_cfg.target_outbound = 0;

  Node victim(sched, net, 0x0a000001, victim_cfg);
  // Distinct /16 groups so netgroup-diversity logic can never interfere.
  const std::uint32_t peer_ips[] = {0x0b000001, 0x0c000001, 0x0d000001};
  std::vector<std::unique_ptr<Node>> peer_nodes;
  for (const std::uint32_t ip : peer_ips) {
    peer_nodes.push_back(std::make_unique<Node>(sched, net, ip, peer_cfg));
    victim.AddKnownAddress({ip, 8333});
  }
  victim.Start();
  for (auto& p : peer_nodes) p->Start();

  auto run = [&](bsim::SimTime d) { sched.RunUntil(sched.Now() + d); };
  auto node_for_ip = [&](std::uint32_t ip) -> Node* {
    for (auto& p : peer_nodes) {
      if (p->Ip() == ip) return p.get();
    }
    return nullptr;
  };
  auto outbound_peers = [&]() {
    std::vector<const Peer*> out;
    for (const Peer* peer : victim.Peers()) {
      if (peer->inbound || peer->feeler || !peer->HandshakeComplete()) continue;
      out.push_back(peer);
    }
    return out;
  };

  run(3 * bsim::kSecond);
  ASSERT_EQ(victim.OutboundCount(), 2u);

  // Both connected peers earn delivery credit: each mines a block in turn.
  // The victim relays accepted blocks onward, so the peers stay on one chain.
  // Snapshot IPs before mining: advancing sim time inside the loop can run
  // the victim's maintenance, which may evict and free the Peer objects the
  // outbound_peers() snapshot points at.
  std::vector<std::uint32_t> connected_ips;
  for (const Peer* peer : outbound_peers()) {
    connected_ips.push_back(peer->remote.ip);
  }
  for (const std::uint32_t ip : connected_ips) {
    ASSERT_NE(node_for_ip(ip), nullptr);
    node_for_ip(ip)->MineAndRelay();
    run(2 * bsim::kSecond);
  }
  ASSERT_EQ(victim.Chain().TipHeight(), 2);
  for (const Peer* peer : outbound_peers()) {
    ASSERT_NE(peer->last_block_time, 0) << "setup: every peer must deliver";
  }

  for (int episode = 1; episode <= 2; ++episode) {
    // Stall past the timeout: the emergency slot opens and the victim dials
    // the one known address it is not already connected to.
    run(victim_cfg.stale_tip_timeout + 6 * bsim::kSecond);
    ASSERT_EQ(victim.StaleTipEvents(), static_cast<std::uint64_t>(episode));
    ASSERT_EQ(victim.OutboundCount(), 3u) << "episode " << episode;

    // The newcomer delivers too (a side block off its own shorter chain is
    // enough for credit), so no outbound peer is left without credit. Same
    // snapshot-the-IPs dance: run() inside the loop invalidates Peer*.
    std::vector<std::uint32_t> uncredited_ips;
    for (const Peer* peer : outbound_peers()) {
      if (peer->last_block_time == 0) uncredited_ips.push_back(peer->remote.ip);
    }
    for (const std::uint32_t ip : uncredited_ips) {
      ASSERT_NE(node_for_ip(ip), nullptr);
      node_for_ip(ip)->MineAndRelay();
      run(2 * bsim::kSecond);
    }
    for (const Peer* peer : outbound_peers()) {
      ASSERT_NE(peer->last_block_time, 0) << "episode " << episode;
    }

    // A peer sitting on the victim's exact tip mines the recovery block.
    Node* tip_peer = nullptr;
    for (const Peer* peer : outbound_peers()) {
      Node* p = node_for_ip(peer->remote.ip);
      if (p != nullptr && p->Chain().TipHash() == victim.Chain().TipHash()) {
        tip_peer = p;
      }
    }
    ASSERT_NE(tip_peer, nullptr) << "episode " << episode;
    const int before = victim.Chain().TipHeight();
    tip_peer->MineAndRelay();
    run(3 * bsim::kSecond);
    ASSERT_GT(victim.Chain().TipHeight(), before);

    // Regression: with every peer credited, the old eviction found no
    // never-delivered candidate and the slot leaked (count stuck at 3, then
    // 4, ...). The fallback retires the least-recently-useful peer instead.
    EXPECT_EQ(victim.OutboundCount(), 2u) << "episode " << episode;
  }
}

}  // namespace
