// flood-rtt: one Node on RealTransport + EventLoop, wired as tools/bsnetd.cpp
// wires it (durable store on, anchors on, RPC server listening), driven over
// loopback TCP by an open-loop generator thread:
//
//   3 attacker connections  PING and unknown-command frames (§III-B vector 1,
//                           never scored) at fixed offered rates, phase by
//                           phase: low (well under capacity), mid, then high
//                           (three times capacity, unknown-command frames
//                           only, so no reply traffic couples the threads);
//   1 honest prober         one PING every kProbeInterval, timed from the
//                           moment it was due to the PONG carrying its nonce.
//
// The generator drains every reply. End-to-end: probe RTT at the low rate,
// frames handled per second at the high rate.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "attack/crafter.hpp"
#include "core/event_loop.hpp"
#include "core/real_transport.hpp"
#include "core/rpc.hpp"
#include "ledger.hpp"
#include "proto/codec.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kAttackers = 3;
constexpr int kConns = kAttackers + 1;  // the last one is the prober
constexpr int kProber = kAttackers;

/// Offered load phases, as shares of --seconds. Rates are whole-flood frames
/// per second, split evenly over the attacker connections.
struct Phase {
  const char* name;
  double rate;
  double share;
  /// The prober acknowledges every read at once (TCP_QUICKACK). Off, the
  /// kernel's delayed-ACK heuristics decide, run by run, whether the node's
  /// Nagle-on sockets hold each PONG until the next probe carries an ACK —
  /// probe RTT is then ~40 us in some runs and ~1 probe interval in others.
  /// The "delack" phase keeps that behaviour on display in every report.
  bool prober_quickack;
};
constexpr std::array<Phase, 5> kPhases = {{
    {"warmup", 20'000.0, 0.05, true},
    {"low", 20'000.0, 0.40, true},
    {"delack", 20'000.0, 0.05, false},
    {"mid", 100'000.0, 0.20, true},
    {"high", 3'000'000.0, 0.30, true},
}};
constexpr std::size_t kLowPhase = 1;
constexpr std::size_t kHighPhase = 4;

constexpr std::int64_t kProbeInterval = 1'000'000;    // 1 ms
constexpr std::int64_t kTick = 100'000;               // attacker send tick
constexpr std::int64_t kWindow = 100'000'000;         // reported load curve
constexpr std::int64_t kProbeTimeout = 1'000'000'000;  // 1 s
constexpr std::size_t kPendingCap = 1 << 20;          // per-connection backlog
/// Above capacity the attackers write in 64 KiB quanta: large writes keep
/// the node's reads large, so the rate it sustains does not hinge on how
/// the two threads happen to interleave.
constexpr std::size_t kHighRateQuantum = 64 << 10;
constexpr std::size_t kPatternLen = 4096;
constexpr std::size_t kBlockFrames = 1024;
/// A run is invalid (not slow) when, in the low phase, the generator ran
/// later than this at p99 ...
constexpr double kMaxLateP99Us = 2000.0;
/// ... or the unhandled backlog exceeded this many milliseconds of the
/// offered load (plus kBacklogSlack frames).
constexpr double kMaxBacklogMs = 20.0;
constexpr double kBacklogSlack = 256.0;

/// Pins the calling thread to the `which`-th allowed CPU counted from the
/// front (which >= 0) or the back (which < 0), so the node and the
/// generator never share a CPU. No-op when the set is too small.
void PinThread(int which) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  const int cpu = which >= 0 ? cpus[static_cast<std::size_t>(which)]
                             : cpus[cpus.size() - static_cast<std::size_t>(-which)];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Outgoing bytes of one connection not yet accepted by the kernel.
struct Pending {
  bsutil::ByteVec buf;
  std::size_t off = 0;

  std::size_t Size() const { return buf.size() - off; }
  void Append(const bsutil::ByteVec& frame) {
    buf.insert(buf.end(), frame.begin(), frame.end());
  }
  /// Writes what the kernel takes. False on a fatal socket error.
  bool Flush(int fd) {
    bool ok = true;
    while (Size() > 0) {
      const ssize_t n = ::send(fd, buf.data() + off, Size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        ok = errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    // Drop the written prefix once it outweighs the rest, so a backlog that
    // never fully drains does not grow the buffer without bound.
    if (off > 0 && off >= Size()) {
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
      off = 0;
    }
    return ok;
  }
};

/// Counts PONG frames in an attacker connection's reply stream by walking
/// frame headers (no checksum, no decode: the generator must stay cheap).
struct PongCounter {
  bsutil::ByteVec buf;
  std::uint64_t pongs = 0;

  void Feed(const std::uint8_t* data, std::size_t len) {
    buf.insert(buf.end(), data, data + len);
    std::size_t pos = 0;
    while (buf.size() - pos >= bsproto::kHeaderSize) {
      std::uint32_t length = 0;
      std::memcpy(&length, buf.data() + pos + 16, 4);  // little-endian host
      if (buf.size() - pos < bsproto::kHeaderSize + length) break;
      if (std::memcmp(buf.data() + pos + 4, "pong\0", 5) == 0) ++pongs;
      pos += bsproto::kHeaderSize + length;
    }
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
  }
};

struct PhaseStats {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t handled_start = 0;
  std::uint64_t handled_end = 0;
  std::int64_t node_cpu_start = 0;  // node thread CPU time, ns
  std::int64_t node_cpu_end = 0;
  std::uint64_t bytes_start = 0;
  std::uint64_t bytes_end = 0;
  std::uint64_t offered = 0;  // frames queued toward the node
  std::uint64_t skipped = 0;  // frames not offered: backlog at its cap
  std::vector<double> rtt_us;
  std::vector<double> late_us;
  /// Frames the node handled per kWindow of wall time, window by window.
  std::vector<double> window_fps;
  double max_backlog = 0.0;
};

struct GenResult {
  std::array<PhaseStats, kPhases.size()> phases{};
  std::uint64_t frames_sent = 0;  // attacker frames + probes
  std::uint64_t pings_sent = 0;
  std::uint64_t unknown_sent = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_answered = 0;
  std::uint64_t probes_late = 0;  // answered after kProbeTimeout, or never
  std::uint64_t bad_nonces = 0;   // PONG carrying no outstanding probe nonce
  std::uint64_t attacker_pongs = 0;
  bool socket_error = false;
  bool drained = false;
  std::uint64_t handled = 0;     // frames the node handled, drain included
  std::vector<double> late_us;  // every scheduled send, all phases
  std::int64_t start_ns = 0;
};

/// The node under test with its four client connections, set up through
/// the daemon's own wiring.
class FloodWorld {
 public:
  FloodWorld(const std::string& dir, std::uint64_t seed, Ledger* ledger,
             bsobs::HotpathProfiler* profiler)
      : dir_(dir) {
    RemoveTree(dir);
    bsim::SocketApi* api = &bsim::RealSocketApi::Instance();
    if (ledger != nullptr) {
      timed_api_ = std::make_unique<TimedSocketApi>(*api, *ledger);
      timed_fs_ = std::make_unique<TimedStoreFs>(bsstore::RealFs::Instance(), *ledger);
      api = timed_api_.get();
      sched_.SetProfiler(profiler);
    }
    bsnet::RealTransportConfig rt;
    rt.bind_port = 0;  // kernel-assigned: concurrent runs never collide
    real_ = std::make_unique<bsnet::RealTransport>(loop_, *api, rt);
    bsnet::Transport* transport = real_.get();
    if (ledger != nullptr) {
      timed_transport_ = std::make_unique<TimedTransport>(*real_, *ledger);
      transport = timed_transport_.get();
    }
    config_.listen_port = 0;
    config_.rng_seed = seed;
    config_.enable_durable_store = true;
    config_.store_dir = dir;
    config_.enable_anchors = true;
    config_.store_fs = timed_fs_.get();
    config_.profiler = profiler;
    node_ = std::make_unique<bsnet::Node>(sched_, *transport, config_);
    observer_.Attach(*node_, ledger);
    node_->Start();
    rpc_ = std::make_unique<bsnet::RpcServer>(loop_, *api, *node_, 0);
  }

  ~FloodWorld() {
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  FloodWorld(const FloodWorld&) = delete;
  FloodWorld& operator=(const FloodWorld&) = delete;

  /// Connects the four clients and completes the version handshake on each.
  bool Handshake(std::uint64_t seed) {
    const std::uint16_t port = real_->BoundPort(0);
    if (real_->LastListenError() != 0 || rpc_->ListenError() != 0 || port == 0) {
      return false;
    }
    const std::uint32_t magic = config_.chain.magic;
    bsutil::Rng rng(seed ^ 0x6a09e667u);
    std::array<bool, kConns> got_version{};
    std::array<bool, kConns> got_verack{};
    std::vector<bsproto::StreamDecoder> decoders(kConns, bsproto::StreamDecoder(magic));
    for (int i = 0; i < kConns; ++i) {
      fds_[i] = ConnectLoopback(port);
      if (fds_[i] < 0) return false;
      bsproto::VersionMsg version;
      version.nonce = rng.Next() | 1;
      version.addr_from.endpoint.ip = 0x7f000001;
      pending_[i].Append(bsproto::EncodeMessage(magic, bsproto::Message{version}));
    }
    const std::int64_t deadline = NowNs() + 5'000'000'000;
    std::uint8_t buf[4096];
    while (NowNs() < deadline) {
      loop_.PumpOnce(1);
      bool all = true;
      for (int i = 0; i < kConns; ++i) {
        if (!pending_[i].Flush(fds_[i])) return false;
        const ssize_t n = ::recv(fds_[i], buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) decoders[i].Feed({buf, static_cast<std::size_t>(n)});
        bsproto::DecodeResult frame;
        while (decoders[i].Next(frame)) {
          if (frame.status != bsproto::DecodeStatus::kOk) continue;
          const bsproto::MsgType type = bsproto::MsgTypeOf(frame.message);
          if (type == bsproto::MsgType::kVersion && !got_version[i]) {
            got_version[i] = true;
            pending_[i].Append(bsproto::EncodeMessage(magic, bsproto::VerackMsg{}));
          } else if (type == bsproto::MsgType::kVerack) {
            got_verack[i] = true;
          }
        }
        all = all && got_version[i] && got_verack[i] && pending_[i].Size() == 0;
      }
      if (all && HandshakedPeers() == kConns) return true;
    }
    return false;
  }

  int HandshakedPeers() const {
    int n = 0;
    for (const bsnet::Peer* p : node_->Peers()) n += p->HandshakeComplete() ? 1 : 0;
    return n;
  }

  bsnet::EventLoop& Loop() { return loop_; }
  bsnet::Node& Node() { return *node_; }
  bsim::Scheduler& Sched() { return sched_; }
  VictimObserver& Observer() { return observer_; }
  const bsnet::NodeConfig& Config() const { return config_; }
  const std::string& Dir() const { return dir_; }
  int Fd(int i) const { return fds_[i]; }

 private:
  std::string dir_;
  bsim::Scheduler sched_;
  bsnet::EventLoop loop_{sched_};
  VictimObserver observer_;
  bsnet::NodeConfig config_;
  std::unique_ptr<TimedSocketApi> timed_api_;
  std::unique_ptr<TimedStoreFs> timed_fs_;
  std::unique_ptr<bsnet::RealTransport> real_;
  std::unique_ptr<TimedTransport> timed_transport_;
  std::unique_ptr<bsnet::Node> node_;
  std::unique_ptr<bsnet::RpcServer> rpc_;
  std::array<int, kConns> fds_{-1, -1, -1, -1};
  std::array<Pending, kConns> pending_{};
};

/// The open-loop generator. Runs on its own thread; touches the node only
/// through the observer's atomic frame counters.
class Generator {
 public:
  Generator(FloodWorld& world, std::uint64_t seed, double seconds)
      : node_clock_(NodeThreadClock()),
        world_(world),
        seconds_(seconds),
        magic_(world.Config().chain.magic),
        probe_decoder_(world.Config().chain.magic) {
    const std::uint32_t magic = magic_;
    bsattack::Crafter crafter(world.Config().chain, seed);
    unknown_frame_ = crafter.UnknownCommandFrame(magic, 32);
    for (std::size_t i = 0; i < kBlockFrames; ++i) {
      unknown_block_.insert(unknown_block_.end(), unknown_frame_.begin(), unknown_frame_.end());
    }
    bsutil::Rng rng(seed);
    for (int c = 0; c < kAttackers; ++c) {
      ping_frames_[c] = bsproto::EncodeMessage(magic, bsproto::PingMsg{rng.Next()});
      pattern_[c].resize(kPatternLen);
      // Two PINGs (answered with a PONG) for every unknown-command frame.
      for (auto& is_ping : pattern_[c]) is_ping = rng.Below(3) != 0 ? 1 : 0;
    }
    probe_nonce_base_ = (rng.Next() | 1) << 24;
  }

  GenResult Run() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    GenResult out;
    VictimObserver& obs = world_.Observer();
    const auto handled = [&] { return obs.frames.load(std::memory_order_relaxed); };
    const auto handled_bytes = [&] {
      return obs.frame_bytes.load(std::memory_order_relaxed);
    };
    const std::uint64_t handled0 = handled();

    out.start_ns = NowNs();
    std::int64_t phase_start = out.start_ns;
    std::int64_t next_probe = out.start_ns;
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      PhaseStats& ps = out.phases[p];
      const Phase& phase = kPhases[p];
      ps.start_ns = phase_start;
      ps.end_ns = phase_start + static_cast<std::int64_t>(phase.share * seconds_ * 1e9);
      ps.handled_start = handled();
      ps.node_cpu_start = NodeCpuNs();
      ps.bytes_start = handled_bytes();
      const double rate_per_conn = phase.rate / kAttackers;
      prober_quickack_ = phase.prober_quickack;
      high_ = p == kHighPhase;
      std::array<std::uint64_t, kAttackers> emitted{};
      std::int64_t next_tick = ps.start_ns;
      std::int64_t window_start = ps.start_ns;
      std::uint64_t window_frames = ps.handled_start;
      while (true) {
        std::int64_t now = NowNs();
        if (now >= ps.end_ns) break;
        if (now - window_start >= kWindow) {
          const std::uint64_t f = handled();
          ps.window_fps.push_back(static_cast<double>(f - window_frames) /
                                  (static_cast<double>(now - window_start) / 1e9));
          window_start = now;
          window_frames = f;
        }
        if (now >= next_tick) {
          const double late = static_cast<double>(now - next_tick) / 1e3;
          ps.late_us.push_back(late);
          out.late_us.push_back(late);
          const double elapsed_s = static_cast<double>(now - ps.start_ns) / 1e9;
          const auto due = static_cast<std::uint64_t>(elapsed_s * rate_per_conn);
          for (int c = 0; c < kAttackers; ++c) {
            const std::uint64_t n = due - emitted[c];
            if (pending_[c].Size() >= kPendingCap) {
              ps.skipped += n;
            } else {
              QueueAttackFrames(c, n, out);
              ps.offered += n;
            }
            emitted[c] = due;
          }
          next_tick += kTick;
          if (next_tick < now) next_tick = now + kTick;  // never burst-catch-up
        }
        if (now >= next_probe) {
          const double late = static_cast<double>(now - next_probe) / 1e3;
          ps.late_us.push_back(late);
          out.late_us.push_back(late);
          SendProbe(next_probe, out);
          next_probe += kProbeInterval;
        }
        if (!FlushAll(p == kHighPhase ? kHighRateQuantum : 0)) out.socket_error = true;
        DrainReplies(out);
        if (p == kLowPhase) {
          const double backlog =
              static_cast<double>(out.frames_sent) -
              static_cast<double>(handled() - handled0);
          ps.max_backlog = std::max(ps.max_backlog, backlog);
        }
        now = NowNs();
        const std::int64_t wake = std::min({next_tick, next_probe, ps.end_ns});
        Wait(wake - now);
      }
      ps.handled_end = handled();
      ps.node_cpu_end = NodeCpuNs();
      ps.bytes_end = handled_bytes();
      phase_start = ps.end_ns;
    }

    // Drain: every queued frame written, handled, and every probe answered.
    prober_quickack_ = true;
    const std::int64_t drain_deadline = NowNs() + 30'000'000'000;
    while (NowNs() < drain_deadline) {
      if (!FlushAll(0)) out.socket_error = true;
      DrainReplies(out);
      const bool all_handled = handled() - handled0 >= out.frames_sent;
      if (all_handled && out.probes_answered + out.bad_nonces >= out.probes_sent &&
          out.attacker_pongs >= out.pings_sent && AllFlushed()) {
        out.drained = true;
        break;
      }
      Wait(200'000);
    }
    out.probes_late += outstanding_.size();
    out.handled = handled() - handled0;
    return out;
  }

 private:
  /// CPU clock of the calling (node) thread; the generator reads it.
  static clockid_t NodeThreadClock() {
    clockid_t id = CLOCK_THREAD_CPUTIME_ID;
    pthread_getcpuclockid(pthread_self(), &id);
    return id;
  }
  std::int64_t NodeCpuNs() const {
    timespec ts{};
    clock_gettime(node_clock_, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

  void QueueAttackFrames(int c, std::uint64_t n, GenResult& out) {
    out.frames_sent += n;
    if (high_) {
      // Above capacity: unknown-command frames only, copied in blocks.
      out.unknown_sent += n;
      const std::size_t frame = unknown_frame_.size();
      for (std::uint64_t left = n; left > 0;) {
        const std::uint64_t k = std::min<std::uint64_t>(left, kBlockFrames);
        pending_[c].buf.insert(pending_[c].buf.end(), unknown_block_.begin(),
                               unknown_block_.begin() + static_cast<std::ptrdiff_t>(k * frame));
        left -= k;
      }
      return;
    }
    for (std::uint64_t k = 0; k < n; ++k) {
      const bool is_ping = pattern_[c][cursor_[c]++ % kPatternLen] != 0;
      pending_[c].Append(is_ping ? ping_frames_[c] : unknown_frame_);
      ++(is_ping ? out.pings_sent : out.unknown_sent);
    }
  }

  void SendProbe(std::int64_t due, GenResult& out) {
    const std::uint64_t nonce = probe_nonce_base_ + out.probes_sent;
    outstanding_.emplace(nonce, due);
    pending_[kProber].Append(
        bsproto::EncodeMessage(magic_, bsproto::Message{bsproto::PingMsg{nonce}}));
    ++out.probes_sent;
    ++out.frames_sent;
  }

  /// Writes every connection's backlog; attacker backlogs only once they
  /// hold `quantum` bytes (the prober always flushes at once).
  bool FlushAll(std::size_t quantum) {
    bool ok = true;
    for (int c = 0; c < kConns; ++c) {
      if (c != kProber && pending_[c].Size() < quantum) continue;
      ok = pending_[c].Flush(world_.Fd(c)) && ok;
    }
    return ok;
  }
  bool AllFlushed() const {
    for (const Pending& p : pending_) {
      if (p.Size() > 0) return false;
    }
    return true;
  }

  void DrainReplies(GenResult& out) {
    for (int c = 0; c < kConns; ++c) {
      while (true) {
        const ssize_t n = ::recv(world_.Fd(c), rx_.data(), rx_.size(), MSG_DONTWAIT);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
            out.socket_error = true;
          }
          break;
        }
        if (c == kProber) {
          OnProberBytes(static_cast<std::size_t>(n), out);
        } else {
          pongs_[c].Feed(rx_.data(), static_cast<std::size_t>(n));
        }
        // Acknowledge every read at once (see Phase::prober_quickack). Left
        // to the kernel, the node's Nagle-on sockets coalesce attacker PONGs
        // in some runs and not in others, and capacity swings 2x.
        if (c != kProber || prober_quickack_) {
          const int one = 1;
          ::setsockopt(world_.Fd(c), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        }
        if (static_cast<std::size_t>(n) < rx_.size()) break;
      }
    }
    out.attacker_pongs = 0;
    for (const PongCounter& pc : pongs_) out.attacker_pongs += pc.pongs;
  }

  void OnProberBytes(std::size_t n, GenResult& out) {
    const std::int64_t now = NowNs();
    probe_decoder_.Feed({rx_.data(), n});
    bsproto::DecodeResult frame;
    while (probe_decoder_.Next(frame)) {
      if (frame.status != bsproto::DecodeStatus::kOk ||
          bsproto::MsgTypeOf(frame.message) != bsproto::MsgType::kPong) {
        continue;
      }
      const std::uint64_t nonce = std::get<bsproto::PongMsg>(frame.message).nonce;
      const auto it = outstanding_.find(nonce);
      if (it == outstanding_.end()) {
        ++out.bad_nonces;
        continue;
      }
      const std::int64_t it_due = it->second;
      const std::int64_t rtt = now - it_due;
      outstanding_.erase(it);
      ++out.probes_answered;
      if (rtt > kProbeTimeout) ++out.probes_late;
      // Attribute the probe to the phase it was due in.
      for (PhaseStats& ps : out.phases) {
        if (it_due >= ps.start_ns && it_due < ps.end_ns) {
          ps.rtt_us.push_back(static_cast<double>(rtt) / 1e3);
        }
      }
    }
  }

  void Wait(std::int64_t ns) {
    if (ns <= 0) return;
    std::array<pollfd, kConns> pfds{};
    for (int c = 0; c < kConns; ++c) {
      pfds[c].fd = world_.Fd(c);
      pfds[c].events = static_cast<short>(POLLIN | (pending_[c].Size() > 0 ? POLLOUT : 0));
    }
    timespec ts{ns / 1'000'000'000, ns % 1'000'000'000};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  }

  clockid_t node_clock_;
  FloodWorld& world_;
  double seconds_;
  std::uint32_t magic_;
  bool prober_quickack_ = true;
  bool high_ = false;
  bsproto::StreamDecoder probe_decoder_;
  bsutil::ByteVec unknown_frame_;
  bsutil::ByteVec unknown_block_;  // kBlockFrames copies of unknown_frame_
  std::array<bsutil::ByteVec, kAttackers> ping_frames_{};
  std::array<std::vector<std::uint8_t>, kAttackers> pattern_{};
  std::array<std::size_t, kAttackers> cursor_{};
  std::array<Pending, kConns> pending_{};
  std::array<PongCounter, kAttackers> pongs_{};
  std::uint64_t probe_nonce_base_ = 0;
  std::map<std::uint64_t, std::int64_t> outstanding_;  // nonce -> due time
  std::array<std::uint8_t, 1 << 16> rx_{};
};

struct FloodPass {
  GenResult gen;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double frames_per_s = 0.0;  // high phase
  double wire_mb_per_s = 0.0;
  /// The traced pass's ledger as of the end of the drain, before shutdown.
  Ledger ledger;
};

/// Builds the world `setups` times (reporting the median set-up time), then
/// drives the last one through the phase schedule and checks its outputs.
FloodPass RunPass(const Options& opt, double seconds, int setups, Ledger* ledger,
                  bsobs::HotpathProfiler* profiler, const std::string& tag,
                  RunResult& result) {
  FloodPass pass;
  std::vector<double> setup_times;
  std::unique_ptr<FloodWorld> world;
  for (int i = 0; i < setups; ++i) {
    if (world) {
      world->Node().Shutdown();
      world.reset();
    }
    const std::string dir = opt.work_dir + "/" + tag + "-" + std::to_string(i);
    const std::int64_t start = NowNs();
    world = std::make_unique<FloodWorld>(dir, opt.seed, ledger, profiler);
    const bool ok = world->Handshake(opt.seed);
    setup_times.push_back(static_cast<double>(NowNs() - start) / 1e9);
    result.Check(ok, "flood-rtt: node listens and all four clients complete the handshake");
    if (!ok) return pass;
  }
  pass.setup_s = Median(setup_times);

  if (ledger != nullptr) ledger->Reset();
  if (profiler != nullptr) profiler->Reset();
  Generator gen(*world, opt.seed, seconds);
  std::atomic<bool> done{false};
  const std::int64_t start = NowNs();
  PinThread(0);
  std::thread thread([&] {
    PinThread(-1);
    pass.gen = gen.Run();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    world->Loop().PumpOnce(2);
    if (ledger != nullptr) ++ledger->loop_turns;
  }
  thread.join();
  pass.wall_s = static_cast<double>(NowNs() - start) / 1e9;

  const GenResult& g = pass.gen;
  // Capacity: what the node handled above capacity per second of its event
  // loop thread's CPU time. On a shared machine this varied half as much
  // between runs as the wall-clock rate, which also moves with how often
  // the thread is kept off its CPU.
  const PhaseStats& high = g.phases[kHighPhase];
  const double node_cpu_s = static_cast<double>(high.node_cpu_end - high.node_cpu_start) / 1e9;
  pass.frames_per_s =
      Ratio(static_cast<double>(high.handled_end - high.handled_start), node_cpu_s);
  pass.wire_mb_per_s =
      Ratio(static_cast<double>(high.bytes_end - high.bytes_start), node_cpu_s) / 1e6;

  // ---- Output checks ----
  bsnet::Node& node = world->Node();
  const VictimObserver& obs = world->Observer();
  result.Check(!g.socket_error, "flood-rtt: no client socket failed");
  result.Check(g.drained, "flood-rtt: the node handled every frame and answered every "
                          "probe before the drain deadline");
  result.Check(g.bad_nonces == 0, "flood-rtt: every PONG carried an outstanding probe nonce");
  result.Check(g.probes_answered == g.probes_sent,
               "flood-rtt: every probe answered with its own nonce (" +
                   std::to_string(g.probes_answered) + "/" +
                   std::to_string(g.probes_sent) + ")");
  result.Check(obs.misbehavior_events == 0 && obs.bans == 0,
               "flood-rtt: PING and unknown-command floods are never scored");
  result.Check(node.FramesIgnoredUnknownCommand() == g.unknown_sent,
               "flood-rtt: every unknown-command frame reached the node and was ignored");
  const auto pings = node.MessageCounts().find(bsproto::MsgType::kPing);
  result.Check(pings != node.MessageCounts().end() &&
                   pings->second == g.pings_sent + g.probes_sent,
               "flood-rtt: every PING reached the node");
  const PhaseStats& low = g.phases[kLowPhase];
  const double low_late_p99 = Quantile(low.late_us, 0.99);
  const double backlog_limit = kPhases[kLowPhase].rate * kMaxBacklogMs / 1e3 + kBacklogSlack;
  result.Check(low_late_p99 <= kMaxLateP99Us,
               "flood-rtt: run invalid: generator p99 lateness at the low rate " +
                   std::to_string(low_late_p99) + " us");
  result.Check(low.max_backlog <= backlog_limit,
               "flood-rtt: run invalid: backlog grew to " +
                   std::to_string(low.max_backlog) + " frames at the low rate");

  result.attempted += g.frames_sent;
  result.failed += g.probes_late + (g.frames_sent - std::min(g.handled, g.frames_sent));

  // Human-readable load curve.
  std::printf("flood-rtt [%s] setup %.4f s (median of %d)\n", tag.c_str(), pass.setup_s,
              setups);
  for (std::size_t p = 0; p < kPhases.size(); ++p) {
    const PhaseStats& ps = g.phases[p];
    const double s = static_cast<double>(ps.end_ns - ps.start_ns) / 1e9;
    std::printf(
        "  phase %-6s offered %9.0f f/s  handled %9.0f f/s  skipped %8llu  "
        "rtt p50 %8.1f us  p99 %9.1f us  (n=%zu)  late p99 %7.1f us  node cpu %3.0f%%\n",
        kPhases[p].name, static_cast<double>(ps.offered) / s,
        static_cast<double>(ps.handled_end - ps.handled_start) / s,
        static_cast<unsigned long long>(ps.skipped), Quantile(ps.rtt_us, 0.5),
        Quantile(ps.rtt_us, 0.99), ps.rtt_us.size(), Quantile(ps.late_us, 0.99),
        100.0 * static_cast<double>(ps.node_cpu_end - ps.node_cpu_start) / (s * 1e9));
  }
  std::printf("  high phase per node-CPU-second: %.0f f/s\n", pass.frames_per_s);
  std::printf("  high-rate windows (kf/s):");
  for (const double v : g.phases[kHighPhase].window_fps) std::printf(" %.0f", v / 1e3);
  std::printf("\n");
  std::printf("  frames sent %llu (pings %llu, unknown %llu, probes %llu), pongs %llu\n",
              static_cast<unsigned long long>(g.frames_sent),
              static_cast<unsigned long long>(g.pings_sent),
              static_cast<unsigned long long>(g.unknown_sent),
              static_cast<unsigned long long>(g.probes_sent),
              static_cast<unsigned long long>(g.attacker_pongs));

  // Graceful shutdown as the daemon does it, then the store must reopen to
  // the same (empty) banlist and pass fsck.
  if (ledger != nullptr) pass.ledger = *ledger;
  const std::vector<bsproto::Endpoint> bans = node.Bans().Snapshot();
  const bsim::SimTime now = world->Sched().Now();
  node.Shutdown();
  const std::string dir = world->Dir();
  world.reset();
  CheckStoreReopens(result, dir, bans, now);
  return pass;
}

}  // namespace

RunResult RunFloodRtt(const Options& opt) {
  RunResult result;
  if (!opt.trace) {
    const FloodPass pass = RunPass(opt, opt.seconds, kSetups, nullptr, nullptr, "flood", result);
    result.Add("setup_s", pass.setup_s, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("frames_per_s", pass.frames_per_s, "1/s");
    result.Add("wire_mb_per_s", pass.wire_mb_per_s, "MB/s");
    return result;
  }

  // Traced run: an untraced pass, then a traced pass over the same schedule.
  const double half = opt.seconds / 2.0;
  const FloodPass base = RunPass(opt, half, 1, nullptr, nullptr, "flood-base", result);
  Ledger ledger;
  bsobs::HotpathProfiler profiler;
  const FloodPass traced = RunPass(opt, half, 1, &ledger, &profiler, "flood-traced", result);

  LayerInputs in;
  in.wall_s = traced.wall_s;
  in.ledger = &traced.ledger;
  in.decode = profiler.Stats(bsobs::HotStage::kCodecDecode);
  in.tracker = profiler.Stats(bsobs::HotStage::kTrackerUpdate);
  in.frames = traced.gen.handled;
  const bsobs::StageStats dispatch = profiler.Stats(bsobs::HotStage::kDispatch);
  in.sim_events = dispatch.count;
  in.sim_ns_per_event = dispatch.ns_per_op;
  in.gen_frames_sent = traced.gen.frames_sent;
  in.gen_late_p99_us = Quantile(traced.gen.late_us, 0.99);
  in.trace_overhead_ratio = Ratio(base.frames_per_s, traced.frames_per_s);
  AddLayerMetrics(result, in, opt.seed);
  std::printf("trace overhead: %.0f vs %.0f frames/s at the high rate\n", base.frames_per_s,
              traced.frames_per_s);
  return result;
}

}  // namespace perfbench
