// bsnetd: the ban-score node as a supervised long-running daemon.
//
// Wires Node + DurableNodeState + bsobs metrics onto RealTransport (epoll,
// non-blocking sockets) with a line-oriented JSON RPC control plane and a
// graceful SIGTERM path: flush the WAL, persist anchors and the ban list,
// close peers politely. Every syscall goes through the SocketApi seam, so
// the same binary runs under seeded fault injection (--fault-* flags) for
// the testbed's kill/recovery drills.
//
// For example (one command line):
//
//   bsnetd --port 9001 --rpc-port 10001 --peers 127.0.0.1:9002,127.0.0.1:9003
//          --store-dir /tmp/n1 --mine-interval-ms 500 --seed 7
//
// Runs until SIGTERM/SIGINT, an RPC "stop", or --seconds elapses. Exit 0 on
// a clean shutdown, 1 on listen/setup failure, 2 on flag errors.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/event_loop.hpp"
#include "core/node.hpp"
#include "core/real_transport.hpp"
#include "core/rpc.hpp"
#include "sim/faultsock.hpp"
#include "util/parse.hpp"

namespace {

volatile std::sig_atomic_t g_signal_stop = 0;

void OnSignal(int) { g_signal_stop = 1; }

struct DaemonFlags {
  std::string ip = "127.0.0.1";
  std::uint16_t port = 9333;
  std::uint16_t rpc_port = 0;  // 0 = port + 1000
  std::vector<bsproto::Endpoint> peers;
  std::string store_dir;
  long mine_interval_ms = 0;
  long seconds = 0;  // 0 = run until signalled
  std::uint64_t seed = 42;
  bsim::FaultSocketFaults faults;
  bool any_fault = false;
  bool quiet = false;
};

bool ParsePeers(const std::string& list, std::vector<bsproto::Endpoint>& out) {
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(pos, comma - pos);
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos) return false;
    bsproto::Endpoint ep;
    ep.ip = bsproto::Endpoint::ParseIp(item.substr(0, colon));
    const auto port = bsutil::ParseUint(item.substr(colon + 1), 1, 65535);
    if (ep.ip == 0 || !port) return false;
    ep.port = static_cast<std::uint16_t>(*port);
    out.push_back(ep);
    pos = comma + 1;
  }
  return true;
}

int UsageError(const char* what) {
  std::fprintf(stderr, "bsnetd: %s\n", what);
  std::fprintf(
      stderr,
      "usage: bsnetd [--ip A] [--port P] [--rpc-port P] [--peers a:p,b:p]\n"
      "              [--store-dir DIR] [--mine-interval-ms N] [--seconds N]\n"
      "              [--seed N] [--quiet]\n"
      "              [--fault-eagain R] [--fault-short R] [--fault-reset R]\n"
      "              [--fault-epipe R] [--fault-accept R] [--fault-connect R]\n"
      "              [--fault-blackhole R] [--fault-seed N]\n");
  return 2;
}

/// Parse `text` strictly into `out` (see util/parse.hpp); false when it is
/// not wholly a number in [lo, hi].
template <typename T>
bool ParseCount(const std::string& text, std::uint64_t lo, std::uint64_t hi, T& out) {
  const auto value = bsutil::ParseUint(text, lo, hi);
  if (value) out = static_cast<T>(*value);
  return value.has_value();
}

bool ParseRate(const std::string& text, double& out) {
  const auto value = bsutil::ParseDouble(text, 0, 1);
  if (value) out = *value;
  return value.has_value();
}

// Durations stay far enough inside SimTime that WallNow() + seconds ×
// kSecond cannot overflow.
constexpr std::uint64_t kMaxSeconds = 1'000'000'000;
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

bool ParseFlags(int argc, char** argv, DaemonFlags& f) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quiet") {
      f.quiet = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--ip") {
      f.ip = value;
    } else if (flag == "--port") {
      ok = ParseCount(value, 0, 65535, f.port);
    } else if (flag == "--rpc-port") {
      ok = ParseCount(value, 0, 65535, f.rpc_port);
    } else if (flag == "--peers") {
      ok = ParsePeers(value, f.peers);
    } else if (flag == "--store-dir") {
      f.store_dir = value;
    } else if (flag == "--mine-interval-ms") {
      ok = ParseCount(value, 0, kMaxSeconds, f.mine_interval_ms);
    } else if (flag == "--seconds") {
      ok = ParseCount(value, 0, kMaxSeconds, f.seconds);
    } else if (flag == "--seed") {
      ok = ParseCount(value, 0, kMaxSeed, f.seed);
    } else if (flag == "--fault-eagain") {
      ok = ParseRate(value, f.faults.eagain_rate);
    } else if (flag == "--fault-short") {
      ok = ParseRate(value, f.faults.short_io_rate);
    } else if (flag == "--fault-reset") {
      ok = ParseRate(value, f.faults.reset_rate);
    } else if (flag == "--fault-epipe") {
      ok = ParseRate(value, f.faults.epipe_rate);
    } else if (flag == "--fault-accept") {
      ok = ParseRate(value, f.faults.accept_fail_rate);
    } else if (flag == "--fault-connect") {
      ok = ParseRate(value, f.faults.connect_fail_rate);
    } else if (flag == "--fault-blackhole") {
      ok = ParseRate(value, f.faults.blackhole_rate);
    } else if (flag == "--fault-seed") {
      ok = ParseCount(value, 0, kMaxSeed, f.faults.seed);
    } else {
      std::fprintf(stderr, "bsnetd: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bsnetd: bad value '%s' for %s\n", value.c_str(), flag.c_str());
      return false;
    }
  }
  // The default RPC port is --port + 1000, which must stay a port.
  if (f.rpc_port == 0 && f.port > 65535 - 1000) {
    std::fprintf(stderr, "bsnetd: --port above 64535 needs an explicit --rpc-port\n");
    return false;
  }
  f.any_fault = f.faults.eagain_rate > 0 || f.faults.short_io_rate > 0 ||
                f.faults.reset_rate > 0 || f.faults.epipe_rate > 0 ||
                f.faults.accept_fail_rate > 0 || f.faults.connect_fail_rate > 0 ||
                f.faults.blackhole_rate > 0;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonFlags flags;
  if (!ParseFlags(argc, argv, flags)) return UsageError("bad flags");
  if (flags.rpc_port == 0) {
    flags.rpc_port = static_cast<std::uint16_t>(flags.port + 1000);
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  bsim::Scheduler sched;
  bsnet::EventLoop loop(sched);

  bsim::FaultSocketApi fault_api(bsim::RealSocketApi::Instance());
  fault_api.SetFaults(flags.faults);
  bsim::SocketApi& api =
      flags.any_fault ? static_cast<bsim::SocketApi&>(fault_api)
                      : static_cast<bsim::SocketApi&>(bsim::RealSocketApi::Instance());

  bsnet::RealTransportConfig rt;
  rt.bind_ip = bsproto::Endpoint::ParseIp(flags.ip);
  if (rt.bind_ip == 0) return UsageError("bad --ip");
  rt.bind_port = flags.port;
  bsnet::RealTransport transport(loop, api, rt);

  bsnet::NodeConfig config;
  config.listen_port = flags.port;
  config.rng_seed = flags.seed;
  if (!flags.store_dir.empty()) {
    config.enable_durable_store = true;
    config.store_dir = flags.store_dir;
    config.enable_anchors = true;
  }

  bsnet::Node node(sched, transport, config);
  node.Start();
  if (transport.LastListenError() != 0) {
    std::fprintf(stderr, "bsnetd: listen on %s:%u failed: %s\n",
                 flags.ip.c_str(), flags.port,
                 std::strerror(-transport.LastListenError()));
    return 1;
  }
  for (const auto& peer : flags.peers) node.AddKnownAddress(peer);

  bsnet::RpcServer rpc(loop, api, node, flags.rpc_port);
  if (rpc.ListenError() != 0) {
    std::fprintf(stderr, "bsnetd: rpc listen on %u failed: %s\n", flags.rpc_port,
                 std::strerror(-rpc.ListenError()));
    return 1;
  }

  if (flags.mine_interval_ms > 0) {
    const bsim::SimTime interval = flags.mine_interval_ms * bsim::kMillisecond;
    auto mine = std::make_shared<std::function<void()>>();
    *mine = [&node, &sched, interval, mine]() {
      node.MineAndRelay();
      sched.After(interval, [mine]() { (*mine)(); });
    };
    sched.After(interval, [mine]() { (*mine)(); });
  }

  if (!flags.quiet) {
    std::printf("bsnetd: listening on %s:%u (rpc %u), store %s\n",
                flags.ip.c_str(), flags.port, rpc.Port(),
                flags.store_dir.empty() ? "<none>" : flags.store_dir.c_str());
    std::fflush(stdout);
  }

  const bsim::SimTime deadline =
      flags.seconds > 0 ? loop.WallNow() + flags.seconds * bsim::kSecond : 0;
  while (g_signal_stop == 0 && !rpc.StopRequested()) {
    if (deadline != 0 && loop.WallNow() >= deadline) break;
    loop.PumpOnce(50);
  }

  // Graceful shutdown: persist anchors, flush the WAL, close peers politely.
  node.Shutdown();
  if (!flags.quiet) {
    std::printf("bsnetd: shut down cleanly (height %d, accepts %llu, teardowns %llu)\n",
                node.Chain().TipHeight(),
                static_cast<unsigned long long>(transport.Accepts()),
                static_cast<unsigned long long>(transport.Teardowns()));
  }
  return 0;
}
