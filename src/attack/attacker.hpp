// The attacker node: not a full Bitcoin node — the analogue of the paper's
// python-bitcoinlib attacker. It can open Bitcoin sessions (TCP + version
// handshake) to a target, hold many Sybil sessions at once, and transmit
// well-formed or raw/bogus frames.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/span.hpp"
#include "proto/codec.hpp"
#include "proto/messages.hpp"
#include "sim/tcp.hpp"

namespace bsattack {

using bsproto::Endpoint;

/// One Sybil session from the attacker to a target.
struct AttackSession {
  std::uint64_t id = 0;
  bsim::TcpConnection* conn = nullptr;
  Endpoint local;  // the Sybil identifier [IP:Port] this session uses
  Endpoint target;

  bool tcp_established = false;
  bool auto_handshake = true;  // reply VERACK to the target's VERSION
  bool got_version = false;   // target's VERSION reply seen
  bool got_verack = false;    // target's VERACK seen
  bool closed = false;        // reset by the target (e.g. banned)

  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  bsim::SimTime opened_at = 0;
  bsim::SimTime closed_at = 0;
  bsproto::StreamDecoder rx{0};  // unbounded; OpenSession sets the magic

  /// Fired when the TCP connection is up (before the Bitcoin handshake).
  std::function<void(AttackSession&)> on_tcp_established;
  /// Fired for every well-formed message the target sends us.
  std::function<void(AttackSession&, const bsproto::Message&)> on_message;
  /// Fired when the Bitcoin version handshake completes (auto mode only).
  std::function<void(AttackSession&)> on_ready;
  /// Fired when the target drops the connection.
  std::function<void(AttackSession&)> on_closed;

  bool SessionReady() const { return got_version && got_verack; }
};

class AttackerNode : public bsim::Host {
 public:
  AttackerNode(bsim::Scheduler& sched, bsim::Network& net, std::uint32_t ip,
               std::uint32_t magic);

  /// Open a session to `target`. `auto_handshake` sends VERSION on connect
  /// and VERACK on the target's VERSION, so `on_ready` fires when the
  /// Bitcoin session is usable. `local_port` 0 picks the next ephemeral
  /// (Sybil) port.
  AttackSession* OpenSession(const Endpoint& target, bool auto_handshake = true,
                             std::uint16_t local_port = 0);

  /// Send a well-formed protocol message on a session.
  void Send(AttackSession& session, const bsproto::Message& msg);
  /// Send arbitrary raw bytes (bogus frames, wrong checksums, unknown
  /// commands) — the "forgoing ban score" primitive.
  void SendRawFrame(AttackSession& session, bsutil::ByteSpan frame);

  void CloseSession(AttackSession& session);

  /// Causal tracing: every frame this attacker sends roots a new trace whose
  /// send span is registered against the session stream, so a victim sharing
  /// the tracer can attribute the misbehavior/ban the frame causes back to
  /// this attacker. Null (default) disables. Not owned.
  void SetSpanTracer(bsobs::SpanTracer* tracer) { tracer_ = tracer; }

  std::uint32_t Magic() const { return magic_; }
  std::uint64_t TotalMessagesSent() const { return total_sent_; }
  std::uint64_t SessionsOpened() const { return sessions_opened_; }
  std::uint64_t SessionsClosedByTarget() const { return sessions_closed_; }

  /// Sessions currently alive (not closed).
  std::vector<AttackSession*> LiveSessions();

 private:
  void HandleSessionData(AttackSession& session, bsutil::ByteSpan data);

  std::uint32_t magic_;
  bsobs::SpanTracer* tracer_ = nullptr;
  std::uint64_t next_session_id_ = 1;
  std::vector<std::unique_ptr<AttackSession>> sessions_;
  std::uint64_t total_sent_ = 0;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t sessions_closed_ = 0;
};

}  // namespace bsattack
