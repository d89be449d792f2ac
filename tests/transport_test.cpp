// Transport seam tests: the SimTransport extraction, the epoll EventLoop,
// the FaultSocketApi syscall shim, and RealTransport driving two full Nodes
// over real loopback sockets — handshake, block relay, polite teardown,
// write-queue shedding, async connect failure, the bounded
// reconnect-backoff map under dial churn, and the RPC's getinfo report.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <vector>

#include "core/event_loop.hpp"
#include "crypto/sha256.hpp"
#include "core/node.hpp"
#include "core/real_transport.hpp"
#include "core/rpc.hpp"
#include "core/sim_transport.hpp"
#include "sim/faultsock.hpp"
#include "sim/network.hpp"
#include "util/json.hpp"

namespace {

using namespace bsnet;  // NOLINT

constexpr std::uint32_t kLoopback = 0x7f000001;

/// Pumps `loop` until `done()` or ~`budget_ms` of wall time passes.
bool PumpUntil(EventLoop& loop, const std::function<bool()>& done,
               int budget_ms = 3000) {
  const bsim::SimTime deadline = loop.WallNow() + budget_ms * bsim::kMillisecond;
  while (!done()) {
    if (loop.WallNow() >= deadline) return false;
    loop.PumpOnce(10);
  }
  return true;
}

// ---------------------------------------------------------------------------
// SimTransport seam: a Node built over an explicit SimTransport behaves
// identically to the legacy (sched, net, ip) constructor.

TEST(SimTransportSeam, ExplicitTransportMatchesLegacyConstructor) {
  const auto run = [](bool explicit_transport) {
    bsim::Scheduler sched;
    bsim::Network net(sched);
    NodeConfig config;
    std::unique_ptr<SimTransport> ta, tb;
    std::unique_ptr<Node> a, b;
    if (explicit_transport) {
      ta = std::make_unique<SimTransport>(sched, net, 0x0a000001);
      tb = std::make_unique<SimTransport>(sched, net, 0x0a000002);
      a = std::make_unique<Node>(sched, *ta, config);
      b = std::make_unique<Node>(sched, *tb, config);
    } else {
      a = std::make_unique<Node>(sched, net, 0x0a000001, config);
      b = std::make_unique<Node>(sched, net, 0x0a000002, config);
    }
    a->Start();
    b->Start();
    b->ConnectTo({0x0a000001, config.listen_port});
    sched.RunUntil(5 * bsim::kSecond);
    b->MineAndRelay();
    sched.RunUntil(10 * bsim::kSecond);
    return std::tuple{a->Chain().TipHeight(), b->Chain().TipHeight(),
                      a->Peers().size(), b->Peers().size(),
                      sched.ExecutedEvents()};
  };
  const auto legacy = run(false);
  const auto seam = run(true);
  EXPECT_EQ(legacy, seam);
  EXPECT_EQ(std::get<0>(seam), 1);  // the mined block relayed
}

// ---------------------------------------------------------------------------
// EventLoop: scheduler timers on wall time, fd events via epoll.

TEST(EventLoop, SchedulerTimersFireAtWallTime) {
  bsim::Scheduler sched;
  EventLoop loop(sched);
  bool fired = false;
  const bsim::SimTime start = loop.WallNow();
  sched.After(30 * bsim::kMillisecond, [&] { fired = true; });
  ASSERT_TRUE(PumpUntil(loop, [&] { return fired; }, 2000));
  EXPECT_GE(loop.WallNow() - start, 30 * bsim::kMillisecond);
}

TEST(EventLoop, FdReadinessDispatchesHandlers) {
  bsim::Scheduler sched;
  EventLoop loop(sched);
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  std::string got;
  ASSERT_TRUE(loop.AddFd(fds[0], EPOLLIN, [&](std::uint32_t) {
    char buf[16];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
  }));
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  ASSERT_TRUE(PumpUntil(loop, [&] { return got.size() == 4; }, 2000));
  EXPECT_EQ(got, "ping");
  loop.DelFd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// FaultSocketApi: the syscall shim injects exactly the configured failures.

class FaultSocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    left_ = fds[0];
    right_ = fds[1];
  }
  void TearDown() override {
    ::close(left_);
    ::close(right_);
  }
  int left_ = -1;
  int right_ = -1;
};

TEST_F(FaultSocketPair, PoisonResetFailsEveryLaterOp) {
  bsim::FaultSocketApi api(bsim::RealSocketApi::Instance());
  api.PoisonFd(left_, bsim::FaultSocketApi::Poison::kReset);
  char byte = 'x';
  EXPECT_EQ(api.Send(left_, &byte, 1), -ECONNRESET);
  EXPECT_EQ(api.Recv(left_, &byte, 1), -ECONNRESET);
  EXPECT_EQ(api.SockError(left_), -ECONNRESET);
  // The unpoisoned side still works against the kernel.
  EXPECT_EQ(api.Send(right_, &byte, 1), 1);
}

TEST_F(FaultSocketPair, BlackholeSwallowsWritesAndSilencesReads) {
  bsim::FaultSocketApi api(bsim::RealSocketApi::Instance());
  api.PoisonFd(left_, bsim::FaultSocketApi::Poison::kBlackhole);
  char buf[8] = "hello";
  EXPECT_EQ(api.Send(left_, buf, 5), 5);  // claims success
  EXPECT_EQ(api.Recv(left_, buf, sizeof buf), -EAGAIN);
  // The peer really never sees the bytes: the write was swallowed.
  EXPECT_EQ(api.Recv(right_, buf, sizeof buf), -EAGAIN);
}

TEST_F(FaultSocketPair, RateOneShortIoHalvesEverySend) {
  bsim::FaultSocketApi api(bsim::RealSocketApi::Instance());
  bsim::FaultSocketFaults faults;
  faults.short_io_rate = 1.0;
  api.SetFaults(faults);
  char buf[100] = {};
  EXPECT_EQ(api.Send(left_, buf, 100), 50);
  EXPECT_EQ(api.InjectedShortIo(), 1u);
}

TEST_F(FaultSocketPair, RateOneEagainNeverTouchesTheKernel) {
  bsim::FaultSocketApi api(bsim::RealSocketApi::Instance());
  bsim::FaultSocketFaults faults;
  faults.eagain_rate = 1.0;
  api.SetFaults(faults);
  char byte = 'x';
  EXPECT_EQ(api.Send(left_, &byte, 1), -EAGAIN);
  EXPECT_EQ(api.Recv(right_, &byte, 1), -EAGAIN);
  EXPECT_EQ(api.InjectedEagain(), 2u);
}

TEST(FaultSocket, AcceptFailureDrainsThePendingConnection) {
  bsim::RealSocketApi& real = bsim::RealSocketApi::Instance();
  bsim::FaultSocketApi api(real);
  bsim::FaultSocketFaults faults;
  faults.accept_fail_rate = 1.0;
  api.SetFaults(faults);

  const int listen_fd = real.OpenStream();
  ASSERT_GE(listen_fd, 0);
  ASSERT_EQ(real.Bind(listen_fd, {kLoopback, 0}), 0);
  ASSERT_EQ(real.Listen(listen_fd, 4), 0);
  bsim::SockAddr bound{};
  ASSERT_EQ(real.LocalEndpoint(listen_fd, bound), 0);

  const int client = real.OpenStream();
  ASSERT_GE(client, 0);
  const int rc = real.Connect(client, {kLoopback, bound.port});
  ASSERT_TRUE(rc == 0 || rc == -EINPROGRESS);
  ::usleep(50 * 1000);  // let the kernel finish the loopback handshake

  bsim::SockAddr peer{};
  EXPECT_EQ(api.Accept(listen_fd, peer), -ECONNABORTED);
  EXPECT_EQ(api.InjectedAcceptFails(), 1u);
  // The pending connection was really consumed, not left queued.
  EXPECT_EQ(real.Accept(listen_fd, peer), -EAGAIN);

  real.CloseFd(client);
  real.CloseFd(listen_fd);
}

// ---------------------------------------------------------------------------
// RealTransport: two full Nodes over real loopback sockets.

TEST(RealTransportLoopback, TwoNodesHandshakeRelayABlockAndTearDownPolitely) {
  bsim::Scheduler sched;
  EventLoop loop(sched);
  bsim::RealSocketApi& api = bsim::RealSocketApi::Instance();

  RealTransportConfig rta;  // bind_port in the config is only the identity;
  rta.bind_port = 0;        // Listen(0) lets the kernel pick a free port.
  RealTransportConfig rtb;
  rtb.bind_port = 0;
  RealTransport ta(loop, api, rta);
  RealTransport tb(loop, api, rtb);

  NodeConfig config;
  config.listen_port = 0;
  Node a(sched, ta, config);
  Node b(sched, tb, config);
  a.Start();
  b.Start();
  ASSERT_EQ(ta.LastListenError(), 0);
  ASSERT_EQ(tb.LastListenError(), 0);
  const std::uint16_t port_a = ta.BoundPort(0);
  ASSERT_NE(port_a, 0);

  ASSERT_TRUE(b.ConnectTo({kLoopback, port_a}));
  ASSERT_TRUE(PumpUntil(loop, [&] {
    const auto peers_a = a.Peers();
    const auto peers_b = b.Peers();
    return peers_a.size() == 1 && peers_b.size() == 1 &&
           peers_a[0]->got_verack && peers_b[0]->got_verack;
  })) << "handshake never completed";

  // Real traffic across the socket: a mined block must relay and connect.
  ASSERT_TRUE(b.MineAndRelay().has_value());
  ASSERT_TRUE(PumpUntil(loop, [&] { return a.Chain().TipHeight() == 1; }))
      << "block never relayed";

  // Polite teardown: B closes, A observes EOF and drops the peer.
  b.DisconnectPeer(b.Peers()[0]->id);
  ASSERT_TRUE(PumpUntil(loop, [&] { return a.Peers().empty(); }))
      << "peer teardown never propagated";
  EXPECT_GE(ta.Accepts(), 1u);
  EXPECT_GE(ta.BytesIn(), 1u);

  a.Shutdown();
  b.Shutdown();
}

/// One request line to `rpc` over a raw socket; the reply line without its
/// newline. The server shares this thread's loop, so pump between reads.
std::string RpcRoundTrip(EventLoop& loop, const RpcServer& rpc, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rpc.Port());
  addr.sin_addr.s_addr = htonl(kLoopback);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string line = request + "\n";
  EXPECT_EQ(::write(fd, line.data(), line.size()), static_cast<ssize_t>(line.size()));
  std::string reply;
  EXPECT_TRUE(PumpUntil(loop, [&] {
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) reply.append(buf, static_cast<std::size_t>(n));
    return reply.find('\n') != std::string::npos;
  }));
  ::close(fd);
  return reply.substr(0, reply.find('\n'));
}

/// A node on real sockets with an RpcServer on a kernel-assigned port.
struct RpcFixture {
  bsim::Scheduler sched;
  EventLoop loop{sched};
  RealTransport transport{loop, bsim::RealSocketApi::Instance(), [] {
                            RealTransportConfig rtc;
                            rtc.bind_port = 0;
                            return rtc;
                          }()};
  Node node{sched, transport, [] {
              NodeConfig config;
              config.listen_port = 0;
              return config;
            }()};
  RpcServer rpc{loop, bsim::RealSocketApi::Instance(), node, 0};

  RpcFixture() { node.Start(); }
  ~RpcFixture() { node.Shutdown(); }
  std::string Call(const std::string& request) { return RpcRoundTrip(loop, rpc, request); }
};

TEST(RpcGetinfo, NamesTheSha256KernelThisProcessRuns) {
  RpcFixture f;
  ASSERT_EQ(f.rpc.ListenError(), 0);
  const std::string reply = f.Call("{\"method\":\"getinfo\"}");
  const auto doc = bsutil::ParseJson(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  const bsutil::JsonValue* result = doc->Find("result");
  ASSERT_NE(result, nullptr) << reply;
  const bsutil::JsonValue* kernel = result->Find("sha256");
  ASSERT_NE(kernel, nullptr) << reply;
  EXPECT_EQ(kernel->str, bscrypto::Sha256::Implementation());
  EXPECT_TRUE(kernel->str == "shani" || kernel->str == "scalar") << kernel->str;
  EXPECT_EQ(reply, std::string("{\"result\":{\"height\":0,\"peers\":0,\"established\":0,"
                               "\"bans\":0,\"sha256\":\"") +
                       bscrypto::Sha256::Implementation() + "\"}}");
}

TEST(RpcSetban, RejectsPortsAndDurationsOutsideTheirRange) {
  RpcFixture f;
  ASSERT_EQ(f.rpc.ListenError(), 0);
  const std::string ban = "{\"method\":\"setban\",\"ip\":\"10.1.0.5\"";
  for (const char* bad : {",\"port\":70000", ",\"port\":-1", ",\"port\":8333.5",
                          ",\"port\":\"8333\""}) {
    EXPECT_EQ(f.Call(ban + bad + "}"),
              "{\"error\":\"setban: port must be an integer in 0-65535\"}")
        << bad;
  }
  // 1e10 s overflows int64 nanoseconds; 1e300 s overflows the conversion.
  for (const char* bad : {",\"seconds\":1e300", ",\"seconds\":1e10", ",\"seconds\":0",
                          ",\"seconds\":-60", ",\"seconds\":null"}) {
    EXPECT_EQ(f.Call(ban + ",\"port\":8333" + bad + "}"),
              "{\"error\":\"setban: seconds must be positive and end the ban within "
              "the clock's range\"}")
        << bad;
  }
  EXPECT_EQ(f.node.Bans().Size(), 0u);

  // The loop's clock is wall time, so the expiry is bracketed, not exact.
  const bsim::SimTime before = f.sched.Now();
  EXPECT_EQ(f.Call(ban + ",\"port\":8333,\"seconds\":60}"), "{\"result\":\"banned\"}");
  const bsim::SimTime until = f.node.Bans().BanExpiry({0x0a010005, 8333});
  EXPECT_GE(until, before + 60 * bsim::kSecond);
  EXPECT_LE(until, f.sched.Now() + 60 * bsim::kSecond);
  EXPECT_EQ(f.Call("{\"method\":\"banlist\"}"),
            "{\"result\":[{\"addr\":\"10.1.0.5:8333\",\"until_ns\":" +
                std::to_string(until) + "}]}");
  EXPECT_EQ(f.Call(ban + ",\"port\":8333,\"remove\":true}"), "{\"result\":\"unbanned\"}");
  EXPECT_EQ(f.Call("{\"method\":\"banlist\"}"), "{\"result\":[]}");
  EXPECT_EQ(f.Call("{\"method\":\"getpeerinfo\"}"), "{\"result\":[]}");
  EXPECT_EQ(f.Call("{\"method\":\"nope\"}"), "{\"error\":\"unknown method: nope\"}");
}

TEST(RealTransportConnect, RefusalReportsAsynchronouslyAndCountsFailure) {
  bsim::Scheduler sched;
  EventLoop loop(sched);
  bsim::RealSocketApi& api = bsim::RealSocketApi::Instance();

  // A port that was just listening and is now closed: refused, not blackholed.
  const int probe = api.OpenStream();
  ASSERT_GE(probe, 0);
  ASSERT_EQ(api.Bind(probe, {kLoopback, 0}), 0);
  ASSERT_EQ(api.Listen(probe, 1), 0);
  bsim::SockAddr freed{};
  ASSERT_EQ(api.LocalEndpoint(probe, freed), 0);
  api.CloseFd(probe);

  RealTransportConfig rt;
  rt.bind_port = 0;
  rt.connect_timeout = 500 * bsim::kMillisecond;
  RealTransport transport(loop, api, rt);

  TransportConn* conn = transport.Connect({kLoopback, freed.port});
  ASSERT_NE(conn, nullptr);
  bool reported = false;
  bool reported_ok = true;
  conn->on_connected = [&](bool connected) {
    reported = true;
    reported_ok = connected;
  };
  EXPECT_FALSE(reported);  // never synchronous, even for instant refusal
  ASSERT_TRUE(PumpUntil(loop, [&] { return reported; }));
  EXPECT_FALSE(reported_ok);
  EXPECT_GE(transport.ConnectFailures() + transport.ConnectTimeouts(), 1u);
  ASSERT_TRUE(PumpUntil(loop, [&] { return transport.PendingConnects() == 0; }));
}

TEST(RealTransportBackpressure, ShedsOldestWholeFramesAndDrainsIntactOnes) {
  bsim::Scheduler sched;
  EventLoop loop(sched);
  bsim::RealSocketApi& real = bsim::RealSocketApi::Instance();
  bsim::FaultSocketApi fault(real);

  // A raw listener the transport dials; reads happen only at the end.
  const int listen_fd = real.OpenStream();
  ASSERT_GE(listen_fd, 0);
  ASSERT_EQ(real.Bind(listen_fd, {kLoopback, 0}), 0);
  ASSERT_EQ(real.Listen(listen_fd, 4), 0);
  bsim::SockAddr bound{};
  ASSERT_EQ(real.LocalEndpoint(listen_fd, bound), 0);

  RealTransportConfig rt;
  rt.bind_port = 0;
  rt.max_write_queue_bytes = 1000;
  RealTransport transport(loop, fault, rt);
  TransportConn* conn = transport.Connect({kLoopback, bound.port});
  ASSERT_NE(conn, nullptr);
  bool connected = false;
  conn->on_connected = [&](bool ok) { connected = ok; };
  ASSERT_TRUE(PumpUntil(loop, [&] { return connected; }));

  // Wedge the socket: every send EAGAINs, so the queue can only grow.
  bsim::FaultSocketFaults faults;
  faults.eagain_rate = 1.0;
  fault.SetFaults(faults);
  const std::size_t kFrame = 200;
  std::vector<std::uint8_t> frame(kFrame, 0xab);
  for (int i = 0; i < 20; ++i) {
    frame.assign(kFrame, static_cast<std::uint8_t>(i));
    conn->Send(frame);
    loop.PumpOnce(0);
  }
  auto* rc = static_cast<RealConn*>(conn);
  EXPECT_LE(rc->QueuedBytes(), rt.max_write_queue_bytes);
  EXPECT_GE(rc->FramesShed(), 10u);  // 20 frames * 200B vs a 1000B cap
  const std::uint64_t shed = rc->FramesShed();

  // Unwedge and drain: the receiver must see only whole frames, and only the
  // newest (20 - shed) of them — drop-oldest, never drop-newest.
  fault.SetFaults({});
  int peer_fd = -1;
  for (int i = 0; i < 100 && peer_fd < 0; ++i) {
    bsim::SockAddr who{};
    peer_fd = real.Accept(listen_fd, who);
    if (peer_fd == -EAGAIN) {
      peer_fd = -1;
      ::usleep(10 * 1000);
    }
  }
  ASSERT_GE(peer_fd, 0);
  std::vector<std::uint8_t> received;
  ASSERT_TRUE(PumpUntil(loop, [&] {
    char buf[4096];
    const long n = real.Recv(peer_fd, buf, sizeof buf);
    if (n > 0) {
      received.insert(received.end(), buf, buf + n);
    }
    return received.size() >= (20 - shed) * kFrame;
  })) << "received only " << received.size() << " bytes";
  ASSERT_EQ(received.size(), (20 - shed) * kFrame);
  // Frames arrive intact and in order, each filled with its sequence byte.
  for (std::size_t i = 0; i < received.size(); ++i) {
    const auto expect =
        static_cast<std::uint8_t>(20 - (20 - shed) + i / kFrame);
    ASSERT_EQ(received[i], expect) << "byte " << i;
  }

  real.CloseFd(peer_fd);
  real.CloseFd(listen_fd);
}

// ---------------------------------------------------------------------------
// A fatal write error tears the connection down synchronously, inside the
// Send() that hit it. The node only marks the peer from on_closed and frees
// it when its turn ends, so a block relay that kills every connection it
// writes to finishes cleanly within one loop pump.

TEST(RealTransportSendFailure, BlockRelayTearsDownEachDeadPeerWithinThePump) {
  for (const bool reset : {true, false}) {
    SCOPED_TRACE(reset ? "ECONNRESET" : "EPIPE");
    bsim::Scheduler sched;
    EventLoop loop(sched);
    bsim::RealSocketApi& real = bsim::RealSocketApi::Instance();
    bsim::FaultSocketApi fault(real);

    RealTransportConfig rt;
    rt.bind_port = 0;
    NodeConfig config;
    config.listen_port = 0;
    RealTransport hub_transport(loop, fault, rt);
    Node hub(sched, hub_transport, config);
    hub.Start();
    const std::uint16_t port = hub_transport.BoundPort(0);
    ASSERT_NE(port, 0);

    constexpr std::size_t kLeaves = 3;
    std::vector<std::unique_ptr<RealTransport>> leaf_transports;
    std::vector<std::unique_ptr<Node>> leaves;
    for (std::size_t i = 0; i < kLeaves; ++i) {
      leaf_transports.push_back(std::make_unique<RealTransport>(loop, real, rt));
      leaves.push_back(std::make_unique<Node>(sched, *leaf_transports.back(), config));
      leaves.back()->Start();
      ASSERT_TRUE(leaves.back()->ConnectTo({kLoopback, port}));
    }
    ASSERT_TRUE(PumpUntil(loop, [&] {
      const auto peers = hub.Peers();
      return peers.size() == kLeaves &&
             std::all_of(peers.begin(), peers.end(),
                         [](const Peer* p) { return p->HandshakeComplete(); });
    })) << "handshakes never completed";

    // From here on every hub write fails as if the peer had vanished.
    bsim::FaultSocketFaults faults;
    (reset ? faults.reset_rate : faults.epipe_rate) = 1.0;
    fault.SetFaults(faults);
    const std::uint64_t teardowns = hub_transport.Teardowns();
    bool relayed = false;
    sched.After(0, [&] { relayed = hub.MineAndRelay().has_value(); });
    for (int i = 0; i < 100 && !relayed; ++i) loop.PumpOnce(10);
    ASSERT_TRUE(relayed);
    EXPECT_TRUE(hub.Peers().empty());
    EXPECT_EQ(hub_transport.Teardowns(), teardowns + kLeaves);
    EXPECT_EQ(hub_transport.ConnCount(), 0u);

    // The leaves see the close; nobody is blamed, and nothing is torn down
    // twice.
    ASSERT_TRUE(PumpUntil(loop, [&] {
      return std::all_of(leaves.begin(), leaves.end(),
                         [](const auto& leaf) { return leaf->Peers().empty(); });
    })) << "leaves never saw the teardown";
    EXPECT_EQ(hub_transport.Teardowns(), teardowns + kLeaves);
    EXPECT_EQ(hub.PeersBanned(), 0u);
    for (const auto& leaf : leaves) EXPECT_EQ(leaf->PeersBanned(), 0u);
    for (const auto& leaf : leaves) leaf->Shutdown();
    hub.Shutdown();
  }
}

// ---------------------------------------------------------------------------
// Reconnect-backoff bound: dial churn over dead addresses must not grow the
// per-endpoint backoff map without limit (the same LRU treatment as
// MisbehaviorTracker::SetMaxEntries).

TEST(DialBackoffBound, ChurnOverDeadAddressesKeepsTheMapBounded) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.reconnect_backoff = true;
  config.dial_backoff_max_entries = 16;
  config.target_outbound = 8;
  Node node(sched, net, 0x0a000001, config);
  node.Start();

  // 200 addresses that will never answer: every dial SYN-times-out and lands
  // in the backoff map. Unbounded, this map would end at ~200 entries.
  for (int i = 1; i <= 200; ++i) {
    node.AddKnownAddress({0x0b000000u + static_cast<std::uint32_t>(i), 8333});
  }
  sched.RunUntil(300 * bsim::kSecond);

  EXPECT_LE(node.DialBackoffEntries(), 16u);
  EXPECT_GT(node.DialBackoffPruned(), 50u);
  node.Stop();
}

TEST(DialBackoffBound, ZeroMeansUnboundedForTheLegacyConfiguration) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.reconnect_backoff = true;
  config.dial_backoff_max_entries = 0;
  config.target_outbound = 8;
  Node node(sched, net, 0x0a000001, config);
  node.Start();
  for (int i = 1; i <= 40; ++i) {
    node.AddKnownAddress({0x0b000000u + static_cast<std::uint32_t>(i), 8333});
  }
  sched.RunUntil(120 * bsim::kSecond);
  EXPECT_GT(node.DialBackoffEntries(), 16u);
  EXPECT_EQ(node.DialBackoffPruned(), 0u);
  node.Stop();
}

}  // namespace
