#pragma once

// RealTransport: the Transport seam on real non-blocking sockets.
//
// Every syscall goes through bsim::SocketApi, so the whole backend runs
// identically over the kernel (RealSocketApi) or under seeded fault
// injection (FaultSocketApi) — EAGAIN storms, connection resets, short
// writes, accept failures and half-open blackholes are all reachable from a
// unit test. Robustness posture, matching the routing-attack literature's
// assumptions about a messy substrate:
//
//   - incremental reads: partial frames accumulate in Node's reassembly
//     buffer; the read loop drains until EAGAIN with a per-wakeup budget so
//     one firehose peer cannot starve the rest;
//   - bounded write queues: each connection queues at most
//     max_write_queue_bytes; overflow sheds the *oldest* whole frames
//     (never a partially written one, so the receiver's decoder stays in
//     sync) rather than growing without bound or blocking the loop;
//   - supervised connects: non-blocking connect with a hard timeout timer;
//     refusal, timeout and reset all surface as on_connected(false), which
//     feeds Node's capped exponential backoff;
//   - dead peers: a blackholed (half-open) connection produces no error —
//     only Node's ping watchdog can see it, which is exactly the layering
//     the paper's misbehavior machinery expects.

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/event_loop.hpp"
#include "core/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/faultsock.hpp"

namespace bsnet {

struct RealTransportConfig {
  /// The node's own listen identity; IsSelf() compares against the full
  /// (ip, port) pair because loopback cluster members share one IP.
  std::uint32_t bind_ip = 0x7f000001;  // 127.0.0.1
  std::uint16_t bind_port = 8333;
  /// Outbound connects that have not established by then fail.
  bsim::SimTime connect_timeout = 5 * bsim::kSecond;
  /// Per-connection write-queue cap; overflow sheds oldest whole frames.
  std::size_t max_write_queue_bytes = 8 * 1024 * 1024;
  /// Per-connection no-sink receive buffering cap (drop-oldest).
  std::size_t recv_buffer_cap = 4 * 1024 * 1024;
  /// Max bytes drained from one connection per epoll wakeup (fairness).
  std::size_t read_budget_per_wakeup = 256 * 1024;
  /// Optional registry for bs_rt_* counters. Not owned.
  bsobs::MetricsRegistry* metrics = nullptr;
};

class RealTransport;

class RealConn final : public TransportConn {
 public:
  enum class State { kConnecting, kEstablished, kClosed };

  bsproto::Endpoint Local() const override { return local_; }
  bsproto::Endpoint Remote() const override { return remote_; }
  bool IsInbound() const override { return inbound_; }
  bool IsEstablished() const override { return state_ == State::kEstablished; }
  void SetDataSink(std::function<void(bsutil::ByteSpan)> sink) override;
  void Send(bsutil::ByteSpan data) override;
  void Close() override;
  void Reset() override;
  void SetReceiveBufferCap(std::size_t cap) override { recv_buffer_cap_ = cap; }

  State GetState() const { return state_; }
  std::size_t QueuedBytes() const { return queued_bytes_; }
  std::uint64_t FramesShed() const { return frames_shed_; }
  std::uint64_t BytesShed() const { return bytes_shed_; }
  std::uint64_t PartialWrites() const { return partial_writes_; }

 private:
  friend class RealTransport;

  RealConn(RealTransport& transport, std::uint64_t id, int fd, bool inbound,
           bsproto::Endpoint local, bsproto::Endpoint remote, State state);

  /// One queued Send() unit — Node emits exactly one wire frame per call,
  /// so shedding whole units keeps the peer's decoder on a frame boundary.
  struct Frame {
    bsutil::ByteVec data;
  };

  RealTransport& transport_;
  std::uint64_t id_;
  int fd_;
  bool inbound_;
  bsproto::Endpoint local_;
  bsproto::Endpoint remote_;
  State state_;

  std::function<void(bsutil::ByteSpan)> on_data_;
  bsutil::ByteVec rx_pending_;  // bytes arrived before a sink was wired
  std::size_t recv_buffer_cap_;

  std::deque<Frame> write_queue_;
  std::size_t front_offset_ = 0;  // bytes of the front frame already sent
  std::size_t queued_bytes_ = 0;
  std::uint64_t frames_shed_ = 0;
  std::uint64_t bytes_shed_ = 0;
  std::uint64_t partial_writes_ = 0;
};

class RealTransport : public Transport {
 public:
  RealTransport(EventLoop& loop, bsim::SocketApi& api, RealTransportConfig config);
  ~RealTransport() override;

  std::uint32_t Ip() const override { return config_.bind_ip; }
  void Listen(std::uint16_t port, AcceptCallback on_accept) override;
  void StopListening(std::uint16_t port) override;
  TransportConn* Connect(const bsproto::Endpoint& remote) override;
  bool IsSelf(const bsproto::Endpoint& ep) const override {
    return ep.ip == config_.bind_ip && ep.port == config_.bind_port;
  }
  void Abandon() override;

  /// 0 when the last Listen() succeeded, else the -errno it died on (the
  /// daemon checks this; Node::Start has no failure channel).
  int LastListenError() const { return last_listen_error_; }
  /// The port the kernel actually assigned (differs from the request only
  /// for Listen(0), which tests use to dodge port collisions).
  std::uint16_t BoundPort(std::uint16_t requested) const;

  std::size_t ConnCount() const { return conns_.size(); }
  /// Connections still mid-connect — the chaos sweep asserts this drains to
  /// zero once the connect timeout has elapsed (nothing wedges half-dialed).
  std::size_t PendingConnects() const {
    std::size_t pending = 0;
    for (const auto& [id, conn] : conns_) {
      if (conn->GetState() == RealConn::State::kConnecting) ++pending;
    }
    return pending;
  }
  std::uint64_t Accepts() const { return accepts_; }
  std::uint64_t ConnectFailures() const { return connect_failures_; }
  std::uint64_t ConnectTimeouts() const { return connect_timeouts_; }
  std::uint64_t Teardowns() const { return teardowns_; }
  std::uint64_t BytesIn() const { return bytes_in_; }
  std::uint64_t BytesOut() const { return bytes_out_; }
  std::uint64_t FramesShed() const { return frames_shed_; }
  std::uint64_t SendEagain() const { return send_eagain_; }

  EventLoop& Loop() { return loop_; }

 private:
  friend class RealConn;

  struct Listener {
    int fd = -1;
    std::uint16_t bound_port = 0;
    AcceptCallback on_accept;
  };

  void HandleAccept(std::uint16_t port);
  void HandleConnEvents(std::uint64_t id, std::uint32_t events);
  void FinishConnect(RealConn& conn);
  void ReadReady(RealConn& conn);
  /// Writes queued frames until EAGAIN; a fatal send error tears the conn
  /// down synchronously (on_closed may fire from inside Send()).
  void FlushQueue(RealConn& conn);
  void UpdateWriteInterest(RealConn& conn);
  /// Fails a connecting conn: on_connected(false), then retire.
  void FailConnect(RealConn& conn);
  /// Tears down an established conn: on_closed, then retire.
  void Teardown(RealConn& conn);
  /// Closes the fd, detaches from epoll, and defers deletion one loop turn
  /// so the object survives the callback stack that triggered the retire.
  void Retire(RealConn& conn);
  void DrainGraveyard();

  EventLoop& loop_;
  bsim::SocketApi& api_;
  RealTransportConfig config_;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<RealConn>> conns_;
  std::vector<std::unique_ptr<RealConn>> graveyard_;
  bool graveyard_drain_scheduled_ = false;
  std::unordered_map<std::uint16_t, Listener> listeners_;
  int last_listen_error_ = 0;

  std::uint64_t accepts_ = 0;
  std::uint64_t connect_failures_ = 0;
  std::uint64_t connect_timeouts_ = 0;
  std::uint64_t teardowns_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::uint64_t frames_shed_ = 0;
  std::uint64_t send_eagain_ = 0;

  bsobs::Counter* m_accepts_ = nullptr;
  bsobs::Counter* m_connect_failures_ = nullptr;
  bsobs::Counter* m_teardowns_ = nullptr;
  bsobs::Counter* m_bytes_in_ = nullptr;
  bsobs::Counter* m_bytes_out_ = nullptr;
  bsobs::Counter* m_frames_shed_ = nullptr;
};

}  // namespace bsnet
