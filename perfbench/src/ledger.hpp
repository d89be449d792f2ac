// The traced run's per-layer ledger and the pass-through decorators that fill
// it. Every decorator wraps one public seam of the program and only counts
// and times the calls that cross it:
//
//   TimedTransport / TimedConn  node   <-> transport  (data sink, Send)
//   TimedSocketApi              transport <-> kernel  (every syscall)
//   TimedStoreFs                store  <-> filesystem (write, fsync, ...)
//
// VictimObserver hangs off the node's observation hooks (on_frame,
// on_message, on_misbehavior, on_peer_banned). It counts in every run — the
// output checks need the counts — and timestamps only when a ledger is
// attached, which is what makes a run "traced".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/node.hpp"
#include "core/transport.hpp"
#include "obs/profiler.hpp"
#include "sim/faultsock.hpp"
#include "store/fs.hpp"

namespace perfbench {

struct Ledger {
  // Node seam.
  std::uint64_t rx_calls = 0;
  std::uint64_t rx_ns = 0;
  std::uint64_t tx_calls = 0;
  std::uint64_t tx_ns = 0;
  // Socket seam.
  std::uint64_t recv_calls = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t recv_eagain = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t syscall_ns = 0;
  // Store seam.
  std::uint64_t store_ns = 0;
  std::uint64_t store_bytes = 0;
  std::vector<double> write_ns;
  std::vector<double> fsync_ns;
  // Hook timestamps: BLOCK handler spans, from on_message(kBlock) to the
  // next frame or the end of the data-sink call, whichever comes first.
  std::uint64_t block_spans = 0;
  std::uint64_t block_ns = 0;
  std::int64_t block_open_ns = -1;
  /// Payload length -> frames received, for the checksum replay.
  std::map<std::size_t, std::uint64_t> payload_sizes;
  // Event loop and scheduler.
  std::uint64_t loop_turns = 0;
  std::uint64_t sim_steps = 0;
  std::uint64_t sim_step_ns = 0;

  void OpenBlock(std::int64_t now) { block_open_ns = now; }
  void CloseBlock(std::int64_t now) {
    if (block_open_ns < 0) return;
    block_ns += static_cast<std::uint64_t>(now - block_open_ns);
    ++block_spans;
    block_open_ns = -1;
  }
  /// Zeroes every counter (start of the measured window).
  void Reset() { *this = Ledger{}; }
};

class TimedConn final : public bsnet::TransportConn {
 public:
  TimedConn(bsnet::TransportConn& inner, Ledger& ledger, bool outbound);

  bsproto::Endpoint Local() const override { return inner_.Local(); }
  bsproto::Endpoint Remote() const override { return inner_.Remote(); }
  bool IsInbound() const override { return inner_.IsInbound(); }
  bool IsEstablished() const override { return inner_.IsEstablished(); }
  void SetDataSink(std::function<void(bsutil::ByteSpan)> sink) override;
  void Send(bsutil::ByteSpan data) override;
  void Close() override { inner_.Close(); }
  void Reset() override { inner_.Reset(); }
  void SetReceiveBufferCap(std::size_t cap) override { inner_.SetReceiveBufferCap(cap); }

 private:
  void Deliver(bsutil::ByteSpan data);

  bsnet::TransportConn& inner_;
  Ledger& ledger_;
  std::function<void(bsutil::ByteSpan)> sink_;
};

/// Transport decorator handed to Node's caller-owned-transport constructor.
/// Wrappers live as long as the decorator: the node never touches a
/// connection after tearing its peer down, so none is reclaimed early.
class TimedTransport final : public bsnet::Transport {
 public:
  TimedTransport(bsnet::Transport& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  std::uint32_t Ip() const override { return inner_.Ip(); }
  void Listen(std::uint16_t port, AcceptCallback on_accept) override;
  void StopListening(std::uint16_t port) override { inner_.StopListening(port); }
  bsnet::TransportConn* Connect(const bsproto::Endpoint& remote) override;
  bool IsSelf(const bsproto::Endpoint& ep) const override { return inner_.IsSelf(ep); }
  void Abandon() override { inner_.Abandon(); }

 private:
  TimedConn& Wrap(bsnet::TransportConn& conn, bool outbound);

  bsnet::Transport& inner_;
  Ledger& ledger_;
  std::vector<std::unique_ptr<TimedConn>> conns_;
};

class TimedSocketApi final : public bsim::SocketApi {
 public:
  TimedSocketApi(bsim::SocketApi& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  int OpenStream() override;
  int Bind(int fd, const bsim::SockAddr& addr) override;
  int Listen(int fd, int backlog) override;
  int Accept(int fd, bsim::SockAddr& peer) override;
  int Connect(int fd, const bsim::SockAddr& addr) override;
  long Send(int fd, const void* buf, std::size_t len) override;
  long Recv(int fd, void* buf, std::size_t len) override;
  int SockError(int fd) override;
  int LocalEndpoint(int fd, bsim::SockAddr& addr) override;
  int CloseFd(int fd) override;

 private:
  bsim::SocketApi& inner_;
  Ledger& ledger_;
};

class TimedStoreFs final : public bsstore::StoreFs {
 public:
  TimedStoreFs(bsstore::StoreFs& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  bool Exists(const std::string& path) override;
  bool ReadFile(const std::string& path, bsutil::ByteVec& out) override;
  std::vector<std::string> ListDir(const std::string& dir) override;
  bool MkDir(const std::string& dir) override;
  int OpenWrite(const std::string& path, bool truncate) override;
  bool Write(int fd, bsutil::ByteSpan data) override;
  bool Fsync(int fd) override;
  void Close(int fd) override;
  bool Rename(const std::string& from, const std::string& to) override;
  bool Remove(const std::string& path) override;

 private:
  bsstore::StoreFs& inner_;
  Ledger& ledger_;
};

/// Counts what the victim node reports through its hooks. Frame counters are
/// atomics because the real-socket workload's generator thread polls them.
class VictimObserver {
 public:
  struct PeerRecord {
    std::uint32_t ip = 0;
    bsnet::Misbehavior rule = bsnet::Misbehavior::kBadChecksumFrame;
    int events = 0;
    bool mixed_rules = false;
    bool banned = false;
  };

  /// Installs the hooks; `ledger` non-null timestamps BLOCK handler spans
  /// and records payload sizes.
  void Attach(bsnet::Node& node, Ledger* ledger);

  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> frame_bytes{0};
  std::uint64_t blocks = 0;
  std::uint64_t misbehavior_events = 0;
  std::uint64_t bans = 0;
  std::map<std::uint64_t, PeerRecord> peers;
};

/// Everything the per-layer block reports; fields a workload does not
/// exercise stay zero and print as zero.
struct LayerInputs {
  double wall_s = 0.0;
  const Ledger* ledger = nullptr;
  bsobs::StageStats decode;   // HotStage::kCodecDecode
  bsobs::StageStats tracker;  // HotStage::kTrackerUpdate
  std::uint64_t frames = 0;
  std::uint64_t sim_events = 0;
  double sim_ns_per_event = 0.0;
  std::uint64_t sim_packets = 0;
  std::uint64_t blocks = 0;
  std::uint64_t misbehavior_events = 0;
  std::uint64_t bans = 0;
  double msgs_per_ban = 0.0;
  double bans_per_s = 0.0;
  std::uint64_t store_commits = 0;
  std::uint64_t gen_frames_sent = 0;
  double gen_late_p99_us = 0.0;
  double trace_overhead_ratio = 0.0;
};

/// Appends every per-layer metric, in BENCHMARK.json order. Replays the
/// received payload sizes through PayloadChecksum for the crypto layer.
void AddLayerMetrics(RunResult& result, const LayerInputs& in, std::uint64_t seed);

/// Reads a counter from a node's registry (0 when absent).
std::uint64_t CounterValue(const bsnet::Node& node, const char* name);

/// Ban-score increments needed to reach the node's threshold under `rule`
/// for the configured Core version — the Table I arithmetic.
int MessagesToBan(const bsnet::NodeConfig& config, bsnet::Misbehavior rule);

/// Opens the store in `dir` again, independently of the node that wrote it,
/// and checks that it replays to `expected_bans` and fsck reports it healthy.
void CheckStoreReopens(RunResult& result, const std::string& dir,
                       const std::vector<bsproto::Endpoint>& expected_bans,
                       bsim::SimTime now);

}  // namespace perfbench
