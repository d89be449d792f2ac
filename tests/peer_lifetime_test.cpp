// Peer lifetime: a disconnect only marks a Peer, and the node frees it when
// the turn that marked it ends. Every test drives the node through a
// Transport double whose connections may fire on_closed synchronously from
// inside Send() — the simulator's reliable-mode TCP does exactly that when
// its retransmit queue overflows — and then checks, for every marking site,
// that the peer is gone once the turn ends and that the node never touches
// the connection again. The suite is meant to run under ASan/UBSan too, where
// a Peer freed mid-turn shows up as a heap-use-after-free.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/event_loop.hpp"
#include "core/node.hpp"
#include "core/rpc.hpp"
#include "sim/faultsock.hpp"

namespace {

using namespace bsnet;  // NOLINT
using bsproto::Endpoint;

constexpr std::uint32_t kNodeIp = 0x0a000001;  // 10.0.0.1

/// Connection double. Callbacks fire in place, as the simulator fires them.
class FakeConn final : public TransportConn {
 public:
  FakeConn(Endpoint local, Endpoint remote, bool inbound)
      : local_(local), remote_(remote), inbound_(inbound) {}

  Endpoint Local() const override { return local_; }
  Endpoint Remote() const override { return remote_; }
  bool IsInbound() const override { return inbound_; }
  bool IsEstablished() const override { return open_; }
  void SetDataSink(std::function<void(bsutil::ByteSpan)> sink) override {
    Touch();
    sink_ = std::move(sink);
  }
  void Send(bsutil::ByteSpan) override {
    Touch();
    if (!open_) return;
    ++sends;
    if (close_on_send) Drop();  // e.g. the sim's retransmit-overflow Reset
  }
  void Close() override {
    Touch();
    Drop();
  }
  void Reset() override {
    Touch();
    ++resets;
    Drop();
  }

  /// Completes an outbound dial: on_connected(true).
  void Establish() {
    open_ = true;
    if (on_connected) on_connected(true);
  }
  void Open() { open_ = true; }
  /// Bytes from the remote side, as one delivery.
  void Deliver(const bsutil::ByteVec& bytes) {
    if (open_ && sink_) sink_(bytes);
  }
  /// The substrate closes the connection: on_closed fires synchronously.
  void Drop() {
    if (!open_) return;
    open_ = false;
    closed = true;
    if (on_closed) on_closed();
  }
  /// Fires whatever callbacks are still installed, ignoring the closed state
  /// — a late event from a sloppy substrate. The node must shrug it off.
  void FireLate(const bsutil::ByteVec& bytes) {
    if (sink_) sink_(bytes);
    if (on_closed) on_closed();
  }
  bool HasNodeCallbacks() const { return sink_ != nullptr || on_closed != nullptr; }

  bool close_on_send = false;
  bool closed = false;
  /// Set by the test once the node has freed the peer; any later call from
  /// the node counts in touches_after_reap.
  bool reaped = false;
  int touches_after_reap = 0;
  int sends = 0;
  int resets = 0;

 private:
  void Touch() {
    if (reaped) ++touches_after_reap;
  }

  Endpoint local_;
  Endpoint remote_;
  bool inbound_;
  bool open_ = false;
  std::function<void(bsutil::ByteSpan)> sink_;
};

class FakeTransport final : public Transport {
 public:
  std::uint32_t Ip() const override { return kNodeIp; }
  void Listen(std::uint16_t, AcceptCallback on_accept) override {
    accept_ = std::move(on_accept);
  }
  void StopListening(std::uint16_t) override { accept_ = nullptr; }
  TransportConn* Connect(const Endpoint& remote) override {
    return &Add(remote, /*inbound=*/false);
  }
  bool IsSelf(const Endpoint& ep) const override { return ep.ip == kNodeIp; }
  void Abandon() override {}

  FakeConn& Accept(const Endpoint& remote) {
    FakeConn& conn = Add(remote, /*inbound=*/true);
    conn.Open();
    accept_(conn);
    return conn;
  }
  FakeConn& Last() { return *conns_.back(); }

 private:
  FakeConn& Add(const Endpoint& remote, bool inbound) {
    conns_.push_back(std::make_unique<FakeConn>(Endpoint{kNodeIp, next_port_++},
                                                remote, inbound));
    return *conns_.back();
  }

  AcceptCallback accept_;
  // Connections outlive the node, so only a freed Peer can dangle.
  std::vector<std::unique_ptr<FakeConn>> conns_;
  std::uint16_t next_port_ = 40000;
};

bsutil::ByteVec Wire(std::initializer_list<bsproto::Message> msgs) {
  bsutil::ByteVec out;
  for (const bsproto::Message& msg : msgs) {
    const bsutil::ByteVec frame = bsproto::EncodeMessage(NodeConfig{}.chain.magic, msg);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

bschain::Transaction SpendTx() {
  bschain::Transaction tx;
  tx.version = 2;
  bschain::TxIn in;
  std::array<std::uint8_t, bscrypto::Hash256::kSize> prev{};
  prev[0] = 9;
  in.prevout.txid = bscrypto::Hash256(prev);
  in.prevout.index = 1;
  in.script_sig = bsutil::ToBytes("scriptsig");
  tx.inputs.push_back(in);
  bschain::TxOut out;
  out.value = 12345;
  out.script_pubkey = bsutil::ToBytes("pubkey");
  tx.outputs.push_back(out);
  return tx;
}

class PeerLifetime : public ::testing::Test {
 protected:
  struct Link {
    FakeConn* conn;
    std::uint64_t id;
  };

  void Boot(NodeConfig config = {}) {
    node_ = std::make_unique<Node>(sched_, transport_, std::move(config));
    node_->Start();
  }

  std::uint64_t IdOf(const FakeConn& conn) {
    const Peer* peer = node_->FindPeerByRemote(conn.Remote());
    return peer == nullptr ? 0 : peer->id;
  }

  /// An inbound peer that completed the version handshake.
  Link Handshaked(std::uint32_t ip) {
    FakeConn& conn = transport_.Accept({ip, 8333});
    conn.Deliver(Wire({bsproto::VersionMsg{}, bsproto::VerackMsg{}}));
    const Peer* peer = node_->FindPeerByRemote(conn.Remote());
    EXPECT_TRUE(peer != nullptr && peer->HandshakeComplete());
    return {&conn, peer == nullptr ? 0 : peer->id};
  }

  /// An outbound peer (optionally a feeler) whose dial just completed.
  Link Dialed(const Endpoint& remote, bool feeler = false) {
    EXPECT_TRUE(node_->ConnectTo(remote, feeler));
    FakeConn& conn = transport_.Last();
    conn.Establish();
    return {&conn, IdOf(conn)};
  }

  /// The turn that marked `link` has ended: the peer is gone from every
  /// query, recorded as disconnected exactly once with nothing after, and
  /// neither later time nor late transport events make the node touch it.
  void ExpectReaped(const Link& link) {
    ASSERT_NE(link.id, 0u);
    EXPECT_EQ(node_->FindPeerById(link.id), nullptr);
    for (const Peer* peer : node_->Peers()) EXPECT_NE(peer->id, link.id);
    EXPECT_TRUE(link.conn->closed);

    link.conn->reaped = true;
    const std::uint64_t messages = node_->TotalMessagesReceived();
    link.conn->FireLate(Wire({bsproto::PingMsg{99}}));
    sched_.RunUntil(sched_.Now() + 10 * bsim::kSecond);
    EXPECT_EQ(link.conn->touches_after_reap, 0);
    EXPECT_EQ(node_->TotalMessagesReceived(), messages);

    int disconnects = 0;
    bool after_disconnect = false;
    for (const bsobs::TraceEvent& ev : node_->Trace().Snapshot()) {
      if (ev.peer_id != link.id) continue;
      EXPECT_FALSE(after_disconnect) << "event after disconnect: "
                                     << static_cast<int>(ev.type);
      if (ev.type == bsobs::EventType::kPeerDisconnected) {
        ++disconnects;
        after_disconnect = true;
      }
    }
    EXPECT_EQ(disconnects, 1);
  }

  bsim::Scheduler sched_;
  FakeTransport transport_;
  std::unique_ptr<Node> node_;
};

// Each relay Send() closes its connection, so on_closed fires for every
// peer while the relay loop is still walking the peer table.
TEST_F(PeerLifetime, BlockRelayToConnsClosingInSendFreesNothingMidLoop) {
  Boot();
  std::vector<Link> links;
  for (std::uint32_t i = 0; i < 8; ++i) links.push_back(Handshaked(0x0a010001 + i));
  for (const Link& link : links) link.conn->close_on_send = true;

  ASSERT_TRUE(node_->MineAndRelay().has_value());
  EXPECT_TRUE(node_->Peers().empty());
  EXPECT_EQ(node_->InboundCount(), 0u);
  for (const Link& link : links) ExpectReaped(link);
}

TEST_F(PeerLifetime, TxRelayToConnsClosingInSendFreesNothingMidLoop) {
  Boot();
  std::vector<Link> links;
  for (std::uint32_t i = 0; i < 8; ++i) links.push_back(Handshaked(0x0a010001 + i));
  for (std::size_t i = 1; i < links.size(); ++i) links[i].conn->close_on_send = true;

  const bschain::Transaction tx = SpendTx();
  links[0].conn->Deliver(Wire({bsproto::TxMsg{tx}}));
  EXPECT_TRUE(node_->Pool().Contains(tx.Txid()));
  ASSERT_EQ(node_->Peers().size(), 1u);
  EXPECT_EQ(node_->Peers()[0]->id, links[0].id);
  for (std::size_t i = 1; i < links.size(); ++i) ExpectReaped(links[i]);
}

TEST_F(PeerLifetime, KeepalivePingLoopSurvivesConnsClosingInSend) {
  NodeConfig config;
  config.ping_interval = 1 * bsim::kSecond;
  Boot(config);
  std::vector<Link> links;
  for (std::uint32_t i = 0; i < 8; ++i) links.push_back(Handshaked(0x0a010001 + i));
  for (const Link& link : links) link.conn->close_on_send = true;

  sched_.RunUntil(1500 * bsim::kMillisecond);  // first keepalive round
  EXPECT_TRUE(node_->Peers().empty());
  for (const Link& link : links) ExpectReaped(link);
}

TEST_F(PeerLifetime, TipProbeRoundSurvivesConnsClosingInSend) {
  NodeConfig config;
  config.enable_partition_resilience = true;
  config.partition_probe_interval = 1 * bsim::kSecond;
  Boot(config);
  std::vector<Link> links;
  for (std::uint32_t i = 0; i < 4; ++i) links.push_back(Handshaked(0x0a010001 + i));
  for (const Link& link : links) link.conn->close_on_send = true;

  sched_.RunUntil(1500 * bsim::kMillisecond);  // first probe round
  EXPECT_EQ(node_->TipProbesSent(), 2u);
  EXPECT_EQ(node_->Peers().size(), 2u);
  for (const Link& link : links) {
    if (link.conn->closed) ExpectReaped(link);
  }
}

TEST_F(PeerLifetime, BanMidDeliveryDropsTheRestAndFreesAfterTheTurn) {
  NodeConfig config;
  config.ban_threshold = 1;  // a duplicate VERSION (+1) bans
  Boot(config);
  const Link link = Handshaked(0x0a010001);
  const std::uint64_t messages = node_->TotalMessagesReceived();
  const int sends = link.conn->sends;

  link.conn->Deliver(Wire({bsproto::VersionMsg{}, bsproto::PingMsg{1},
                           bsproto::PingMsg{2}}));
  EXPECT_EQ(node_->PeersBanned(), 1u);
  EXPECT_EQ(node_->TotalMessagesReceived(), messages + 1);  // the PINGs never ran
  EXPECT_EQ(link.conn->sends, sends);                        // so no PONG
  EXPECT_EQ(link.conn->resets, 1);
  EXPECT_FALSE(link.conn->HasNodeCallbacks());
  EXPECT_TRUE(node_->Bans().IsBanned(link.conn->Remote(), sched_.Now()));
  ExpectReaped(link);
}

TEST_F(PeerLifetime, FeelerCompletingInVerackIsFreedAfterTheTurn) {
  Boot();
  const Link link = Dialed({0x0a020001, 8333}, /*feeler=*/true);
  ASSERT_NE(link.id, 0u);
  EXPECT_EQ(link.conn->sends, 1);  // VERSION

  link.conn->Deliver(Wire({bsproto::VersionMsg{}, bsproto::VerackMsg{},
                           bsproto::PingMsg{7}}));
  EXPECT_EQ(link.conn->sends, 2);  // VERACK; no GETHEADERS, no PONG
  EXPECT_EQ(link.conn->resets, 1);
  EXPECT_EQ(node_->OutboundDialFailures(), 0u);  // a finished probe is no failure
  ExpectReaped(link);
}

TEST_F(PeerLifetime, OutboundConnClosingOnItsVersionSendIsFreedAfterTheTurn) {
  Boot();
  ASSERT_TRUE(node_->ConnectTo({0x0a020001, 8333}));
  FakeConn& conn = transport_.Last();
  conn.close_on_send = true;
  conn.Establish();  // registers the peer, whose VERSION send closes the conn
  EXPECT_EQ(node_->OutboundCount(), 0u);
  EXPECT_EQ(node_->OutboundDialFailures(), 1u);
  const auto& events = node_->Trace().Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, bsobs::EventType::kPeerDisconnected);
  ExpectReaped({&conn, events.back().peer_id});
}

TEST_F(PeerLifetime, InboundEvictionFreesTheLoserBeforeTheNewcomerRegisters) {
  NodeConfig config;
  config.enable_eviction = true;
  config.max_inbound = 16;
  Boot(config);
  std::vector<Link> links;
  for (std::uint32_t i = 0; i < 16; ++i) {
    // Two /16 groups, eight each: enough that some peer is unprotected.
    links.push_back(Handshaked((i % 2 == 0 ? 0x0a030000 : 0x0a040000) + i + 1));
  }
  std::uint64_t evicted = 0;
  node_->on_peer_evicted = [&](const Peer& peer) { evicted = peer.id; };

  FakeConn& newcomer = transport_.Accept({0x0a050001, 8333});
  ASSERT_NE(evicted, 0u);
  EXPECT_EQ(node_->PeersEvicted(), 1u);
  EXPECT_EQ(node_->InboundCount(), 16u);
  EXPECT_NE(node_->FindPeerByRemote(newcomer.Remote()), nullptr);
  for (const Link& link : links) {
    if (link.id == evicted) {
      EXPECT_EQ(link.conn->resets, 1);
      ExpectReaped(link);
    }
  }
}

TEST_F(PeerLifetime, HandshakeWatchdogFreesTheStalledPeerAfterItsTurn) {
  NodeConfig config;
  config.handshake_timeout = 2 * bsim::kSecond;
  Boot(config);
  FakeConn& conn = transport_.Accept({0x0a010001, 8333});
  const Link link{&conn, IdOf(conn)};

  sched_.RunUntil(3 * bsim::kSecond);
  EXPECT_EQ(node_->HandshakeTimeouts(), 1u);
  EXPECT_EQ(conn.resets, 1);
  ExpectReaped(link);
}

TEST_F(PeerLifetime, DeadPeerCheckFreesTheSilentPeerAfterItsTurn) {
  NodeConfig config;
  // A timeout above the interval never fires: each round re-PINGs before
  // the outstanding PING can age past it.
  config.ping_interval = 1 * bsim::kSecond;
  config.ping_timeout = 1 * bsim::kSecond;
  Boot(config);
  const Link silent = Handshaked(0x0a010001);

  sched_.RunUntil(2500 * bsim::kMillisecond);  // PING at 1 s, dead at 2 s
  EXPECT_EQ(node_->DeadPeerDisconnects(), 1u);
  EXPECT_EQ(silent.conn->resets, 1);
  ExpectReaped(silent);
}

TEST_F(PeerLifetime, PartitionRotateFreesTheLaggingOutboundPeer) {
  NodeConfig config;
  config.enable_partition_resilience = true;
  config.partition_expected_block_interval = 1 * bsim::kSecond;
  config.partition_probe_interval = 1 * bsim::kSecond;
  config.partition_ladder_step = 1 * bsim::kSecond;
  Boot(config);
  const Link ahead = Dialed({0x0a020001, 8333});
  const Link behind = Dialed({0x0a030001, 8333});
  for (const Link& link : {ahead, behind}) {
    link.conn->Deliver(Wire({bsproto::VersionMsg{}, bsproto::VerackMsg{}}));
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(node_->MineAndRelay().has_value());

  // One outbound peer claims a tip far ahead (a partition symptom), the
  // other trails us: once the ladder reaches kRotate, the trailing one goes.
  const auto probe = [](std::int32_t height) {
    bsproto::TipProbeMsg msg;
    msg.nonce = 1;
    msg.tips.push_back({height, bscrypto::Hash256{}});
    return Wire({msg});
  };
  for (int second = 1; second <= 60 && !behind.conn->closed; ++second) {
    ahead.conn->Deliver(probe(20));
    behind.conn->Deliver(probe(1));
    sched_.RunUntil(second * bsim::kSecond);
  }
  ASSERT_TRUE(behind.conn->closed) << "the ladder never rotated";
  EXPECT_EQ(node_->Partition().CurrentStage(), PartitionMonitor::Stage::kRotate);
  EXPECT_EQ(behind.conn->resets, 1);
  EXPECT_NE(node_->FindPeerById(ahead.id), nullptr);
  ExpectReaped(behind);
}

TEST_F(PeerLifetime, RpcSetbanDisconnectsThroughItsOwnTurn) {
  EventLoop loop(sched_);
  Boot();
  const Link link = Handshaked(0x0a010005);
  RpcServer rpc(loop, bsim::RealSocketApi::Instance(), *node_, 0);
  ASSERT_EQ(rpc.ListenError(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rpc.Port());
  addr.sin_addr.s_addr = htonl(0x7f000001);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string request =
      "{\"method\":\"setban\",\"ip\":\"10.1.0.5\",\"port\":8333}\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  std::string reply;
  const bsim::SimTime deadline = loop.WallNow() + 3 * bsim::kSecond;
  while (reply.find('\n') == std::string::npos && loop.WallNow() < deadline) {
    loop.PumpOnce(10);
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("banned"), std::string::npos) << reply;
  EXPECT_TRUE(node_->Bans().IsBanned(link.conn->Remote(), sched_.Now()));
  EXPECT_EQ(link.conn->resets, 1);
  ExpectReaped(link);
}

}  // namespace
