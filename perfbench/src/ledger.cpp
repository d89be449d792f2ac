#include "ledger.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "core/durable.hpp"
#include "core/rules.hpp"
#include "proto/codec.hpp"
#include "store/fsck.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Times one call into a seam and charges it to `total_ns`.
template <typename Fn>
auto Timed(std::uint64_t& total_ns, Fn&& fn) {
  const std::int64_t start = NowNs();
  auto result = fn();
  total_ns += static_cast<std::uint64_t>(NowNs() - start);
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transport decorator

TimedConn::TimedConn(bsnet::TransportConn& inner, Ledger& ledger, bool outbound)
    : inner_(inner), ledger_(ledger) {
  // An accepted connection is wrapped from inside its own on_connected
  // callback; replacing that callback there would destroy the running
  // closure, and it never fires again anyway.
  if (outbound) {
    inner_.on_connected = [this](bool ok) {
      if (on_connected) on_connected(ok);
    };
  }
  inner_.on_closed = [this]() {
    if (on_closed) on_closed();
  };
}

void TimedConn::SetDataSink(std::function<void(bsutil::ByteSpan)> sink) {
  // The node's sink lives here, not in the inner connection's closure: the
  // node may replace it from inside a delivery (a ban tears the peer down),
  // and Deliver must not read a closure that was destroyed under it.
  sink_ = std::move(sink);
  if (!sink_) {
    inner_.SetDataSink(nullptr);
    return;
  }
  inner_.SetDataSink([self = this](bsutil::ByteSpan data) { self->Deliver(data); });
}

void TimedConn::Deliver(bsutil::ByteSpan data) {
  const std::int64_t start = NowNs();
  sink_(data);
  const std::int64_t end = NowNs();
  ledger_.CloseBlock(end);
  ++ledger_.rx_calls;
  ledger_.rx_ns += static_cast<std::uint64_t>(end - start);
}

void TimedConn::Send(bsutil::ByteSpan data) {
  const std::int64_t start = NowNs();
  inner_.Send(data);
  ++ledger_.tx_calls;
  ledger_.tx_ns += static_cast<std::uint64_t>(NowNs() - start);
}

TimedConn& TimedTransport::Wrap(bsnet::TransportConn& conn, bool outbound) {
  conns_.push_back(std::make_unique<TimedConn>(conn, ledger_, outbound));
  return *conns_.back();
}

void TimedTransport::Listen(std::uint16_t port, AcceptCallback on_accept) {
  inner_.Listen(port, [this, on_accept = std::move(on_accept)](
                          bsnet::TransportConn& conn) { on_accept(Wrap(conn, false)); });
}

bsnet::TransportConn* TimedTransport::Connect(const bsproto::Endpoint& remote) {
  bsnet::TransportConn* conn = inner_.Connect(remote);
  return conn == nullptr ? nullptr : &Wrap(*conn, true);
}

// ---------------------------------------------------------------------------
// Socket decorator

int TimedSocketApi::OpenStream() {
  return Timed(ledger_.syscall_ns, [&] { return inner_.OpenStream(); });
}
int TimedSocketApi::Bind(int fd, const bsim::SockAddr& addr) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.Bind(fd, addr); });
}
int TimedSocketApi::Listen(int fd, int backlog) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.Listen(fd, backlog); });
}
int TimedSocketApi::Accept(int fd, bsim::SockAddr& peer) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.Accept(fd, peer); });
}
int TimedSocketApi::Connect(int fd, const bsim::SockAddr& addr) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.Connect(fd, addr); });
}
long TimedSocketApi::Send(int fd, const void* buf, std::size_t len) {
  ++ledger_.send_calls;
  return Timed(ledger_.syscall_ns, [&] { return inner_.Send(fd, buf, len); });
}
long TimedSocketApi::Recv(int fd, void* buf, std::size_t len) {
  const long n = Timed(ledger_.syscall_ns, [&] { return inner_.Recv(fd, buf, len); });
  ++ledger_.recv_calls;
  if (n > 0) ledger_.recv_bytes += static_cast<std::uint64_t>(n);
  if (n == -EAGAIN || n == -EWOULDBLOCK) ++ledger_.recv_eagain;
  return n;
}
int TimedSocketApi::SockError(int fd) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.SockError(fd); });
}
int TimedSocketApi::LocalEndpoint(int fd, bsim::SockAddr& addr) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.LocalEndpoint(fd, addr); });
}
int TimedSocketApi::CloseFd(int fd) {
  return Timed(ledger_.syscall_ns, [&] { return inner_.CloseFd(fd); });
}

// ---------------------------------------------------------------------------
// Store decorator

bool TimedStoreFs::Exists(const std::string& path) {
  return Timed(ledger_.store_ns, [&] { return inner_.Exists(path); });
}
bool TimedStoreFs::ReadFile(const std::string& path, bsutil::ByteVec& out) {
  return Timed(ledger_.store_ns, [&] { return inner_.ReadFile(path, out); });
}
std::vector<std::string> TimedStoreFs::ListDir(const std::string& dir) {
  return Timed(ledger_.store_ns, [&] { return inner_.ListDir(dir); });
}
bool TimedStoreFs::MkDir(const std::string& dir) {
  return Timed(ledger_.store_ns, [&] { return inner_.MkDir(dir); });
}
int TimedStoreFs::OpenWrite(const std::string& path, bool truncate) {
  return Timed(ledger_.store_ns, [&] { return inner_.OpenWrite(path, truncate); });
}
bool TimedStoreFs::Write(int fd, bsutil::ByteSpan data) {
  const std::int64_t start = NowNs();
  const bool ok = inner_.Write(fd, data);
  const auto ns = static_cast<std::uint64_t>(NowNs() - start);
  ledger_.store_ns += ns;
  ledger_.store_bytes += data.size();
  ledger_.write_ns.push_back(static_cast<double>(ns));
  return ok;
}
bool TimedStoreFs::Fsync(int fd) {
  const std::int64_t start = NowNs();
  const bool ok = inner_.Fsync(fd);
  const auto ns = static_cast<std::uint64_t>(NowNs() - start);
  ledger_.store_ns += ns;
  ledger_.fsync_ns.push_back(static_cast<double>(ns));
  return ok;
}
void TimedStoreFs::Close(int fd) {
  const std::int64_t start = NowNs();
  inner_.Close(fd);
  ledger_.store_ns += static_cast<std::uint64_t>(NowNs() - start);
}
bool TimedStoreFs::Rename(const std::string& from, const std::string& to) {
  return Timed(ledger_.store_ns, [&] { return inner_.Rename(from, to); });
}
bool TimedStoreFs::Remove(const std::string& path) {
  return Timed(ledger_.store_ns, [&] { return inner_.Remove(path); });
}

// ---------------------------------------------------------------------------
// Hooks

void VictimObserver::Attach(bsnet::Node& node, Ledger* ledger) {
  node.on_frame = [this, ledger](std::size_t bytes, bsproto::DecodeStatus) {
    frames.fetch_add(1, std::memory_order_relaxed);
    frame_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (ledger != nullptr) {
      ledger->CloseBlock(NowNs());
      ++ledger->payload_sizes[bytes - bsproto::kHeaderSize];
    }
  };
  node.on_message = [this, ledger](const bsnet::Peer&, bsproto::MsgType type,
                                   std::size_t) {
    if (type != bsproto::MsgType::kBlock) return;
    ++blocks;
    if (ledger != nullptr) ledger->OpenBlock(NowNs());
  };
  node.on_misbehavior = [this](const bsnet::Peer& peer, bsnet::Misbehavior what,
                               const bsnet::MisbehaviorOutcome&) {
    ++misbehavior_events;
    PeerRecord& rec = peers[peer.id];
    if (rec.events > 0 && rec.rule != what) rec.mixed_rules = true;
    rec.ip = peer.remote.ip;
    rec.rule = what;
    ++rec.events;
  };
  node.on_peer_banned = [this](const bsnet::Peer& peer) {
    ++bans;
    peers[peer.id].banned = true;
  };
}

// ---------------------------------------------------------------------------
// Per-layer metrics

namespace {

/// Keeps the replayed checksums observable to the optimizer.
volatile std::uint32_t g_checksum_sink = 0;

struct ChecksumReplay {
  double ns_per_kb = 0.0;
  double predicted_ns = 0.0;  // checksum time of every received payload
};

/// Replays payloads of every size the victim received through
/// PayloadChecksum and times them. SHA-256d cost does not depend on the
/// bytes, so seeded random payloads of the received lengths stand in.
ChecksumReplay ReplayChecksums(const std::map<std::size_t, std::uint64_t>& sizes,
                               std::uint64_t seed) {
  ChecksumReplay out;
  bsutil::Rng rng(seed ^ 0xc4ec5u);
  double replay_ns = 0.0;
  double replay_kb = 0.0;
  for (const auto& [len, count] : sizes) {
    bsutil::ByteVec payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next());
    // Enough repetitions to time ~1 MiB (at least 16), capped at 20,000.
    const std::size_t reps =
        std::clamp<std::size_t>((1u << 20) / std::max<std::size_t>(len, 1), 16, 20000);
    std::uint32_t sink = 0;
    const std::int64_t start = NowNs();
    for (std::size_t i = 0; i < reps; ++i) {
      if (len > 0) payload[0] = static_cast<std::uint8_t>(i);
      sink += bsproto::PayloadChecksum(payload)[0];
    }
    const double ns = static_cast<double>(NowNs() - start);
    g_checksum_sink = sink;
    replay_ns += ns;
    replay_kb += static_cast<double>(len * reps) / 1024.0;
    out.predicted_ns += ns / static_cast<double>(reps) * static_cast<double>(count);
  }
  out.ns_per_kb = Ratio(replay_ns, replay_kb);
  return out;
}

}  // namespace

void AddLayerMetrics(RunResult& r, const LayerInputs& in, std::uint64_t seed) {
  static const Ledger kEmpty;
  const Ledger& l = in.ledger != nullptr ? *in.ledger : kEmpty;
  const double wall_ns = in.wall_s * 1e9;
  const bsobs::StageStats& decode = in.decode;
  const bsobs::StageStats& tracker = in.tracker;
  const ChecksumReplay crypto = ReplayChecksums(l.payload_sizes, seed);
  const auto frames = static_cast<double>(in.frames);

  r.Add("sim.events", static_cast<double>(in.sim_events), "count");
  r.Add("sim.ns_per_event", in.sim_ns_per_event, "ns");
  r.Add("sim.packets", static_cast<double>(in.sim_packets), "count");

  r.Add("transport.recv_calls", static_cast<double>(l.recv_calls), "count");
  r.Add("transport.recv_bytes_per_call",
        Ratio(static_cast<double>(l.recv_bytes), static_cast<double>(l.recv_calls)), "B");
  r.Add("transport.eagain_ratio",
        Ratio(static_cast<double>(l.recv_eagain), static_cast<double>(l.recv_calls)),
        "ratio");
  r.Add("transport.send_calls", static_cast<double>(l.send_calls), "count");
  r.Add("transport.syscall_busy_frac", Ratio(static_cast<double>(l.syscall_ns), wall_ns),
        "ratio");
  r.Add("loop.turns", static_cast<double>(l.loop_turns), "count");
  r.Add("loop.frames_per_turn", Ratio(frames, static_cast<double>(l.loop_turns)), "ratio");

  r.Add("node.rx_calls", static_cast<double>(l.rx_calls), "count");
  r.Add("node.rx_ns_per_frame", Ratio(static_cast<double>(l.rx_ns), frames), "ns");
  r.Add("node.rx_busy_frac", Ratio(static_cast<double>(l.rx_ns), wall_ns), "ratio");
  r.Add("node.tx_calls", static_cast<double>(l.tx_calls), "count");
  r.Add("node.tx_ns_per_call",
        Ratio(static_cast<double>(l.tx_ns), static_cast<double>(l.tx_calls)), "ns");

  r.Add("proto.decode_calls_per_frame", Ratio(static_cast<double>(decode.count), frames),
        "ratio");
  r.Add("proto.decode_ns_per_op", decode.ns_per_op, "ns");

  r.Add("crypto.checksum_ns_per_kb", crypto.ns_per_kb, "ns");
  r.Add("crypto.rx_share", Ratio(crypto.predicted_ns, static_cast<double>(l.rx_ns)),
        "ratio");

  r.Add("chain.blocks_validated", static_cast<double>(in.blocks), "count");
  r.Add("chain.handler_ns_per_block",
        Ratio(static_cast<double>(l.block_ns), static_cast<double>(l.block_spans)), "ns");

  r.Add("ban.misbehavior_events", static_cast<double>(in.misbehavior_events), "count");
  r.Add("ban.bans", static_cast<double>(in.bans), "count");
  r.Add("ban.msgs_per_ban", in.msgs_per_ban, "ratio");
  r.Add("ban.tracker_ns_per_op", tracker.ns_per_op, "ns");
  r.Add("ban.bans_per_s", in.bans_per_s, "1/s");

  r.Add("store.commits", static_cast<double>(in.store_commits), "count");
  r.Add("store.bytes_written", static_cast<double>(l.store_bytes), "B");
  r.Add("store.write_ns_p50", Median(l.write_ns), "ns");
  r.Add("store.fsync_ns_p50", Median(l.fsync_ns), "ns");
  r.Add("store.busy_frac", Ratio(static_cast<double>(l.store_ns), wall_ns), "ratio");

  r.Add("gen.frames_sent", static_cast<double>(in.gen_frames_sent), "count");
  r.Add("gen.late_p99_us", in.gen_late_p99_us, "us");
  r.Add("trace_overhead_ratio", in.trace_overhead_ratio, "ratio");
}

std::uint64_t CounterValue(const bsnet::Node& node, const char* name) {
  const bsobs::Counter* c = node.Metrics().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

int MessagesToBan(const bsnet::NodeConfig& config, bsnet::Misbehavior rule) {
  const auto info = bsnet::GetRule(config.core_version, rule);
  if (!info || info->score <= 0) return -1;
  return (config.ban_threshold + info->score - 1) / info->score;
}

void CheckStoreReopens(RunResult& result, const std::string& dir,
                       const std::vector<bsproto::Endpoint>& expected_bans,
                       bsim::SimTime now) {
  bsstore::RealFs& fs = bsstore::RealFs::Instance();
  const bsstore::FsckReport fsck = bsstore::RunFsck(fs, dir, /*repair=*/false);
  result.Check(fsck.store_found && fsck.healthy, "fsck reports the store healthy");

  bsnet::BanMan bans;
  bsnet::MisbehaviorTracker tracker(bsnet::CoreVersion::kV0_20,
                                    bsnet::BanPolicy::kBanScore, 100);
  bsnet::AddrMan addrs;
  bsnet::DurableNodeState reopened(fs, dir, bans, tracker, addrs);
  result.Check(reopened.Open(now), "the store reopens");
  std::vector<bsproto::Endpoint> got = bans.Snapshot();
  std::vector<bsproto::Endpoint> want = expected_bans;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  result.Check(got == want, "the reopened store holds the node's banlist (" +
                                std::to_string(got.size()) + " vs " +
                                std::to_string(want.size()) + ")");
}

}  // namespace perfbench
