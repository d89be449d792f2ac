#include "attack/attacker.hpp"

namespace bsattack {

AttackerNode::AttackerNode(bsim::Scheduler& sched, bsim::Network& net, std::uint32_t ip,
                           std::uint32_t magic)
    : bsim::Host(sched, net, ip), magic_(magic) {}

AttackSession* AttackerNode::OpenSession(const Endpoint& target, bool auto_handshake,
                                         std::uint16_t local_port) {
  auto session = std::make_unique<AttackSession>();
  AttackSession* raw = session.get();
  raw->id = next_session_id_++;
  raw->target = target;
  raw->rx = bsproto::StreamDecoder(magic_);
  raw->auto_handshake = auto_handshake;
  raw->opened_at = Sched().Now();
  sessions_.push_back(std::move(session));
  ++sessions_opened_;

  if (local_port == 0) local_port = AllocEphemeralPort();
  raw->local = Endpoint{Ip(), local_port};

  bsim::TcpConnection* conn = ConnectFrom(local_port, target, nullptr);
  if (conn == nullptr) {
    raw->closed = true;
    return raw;
  }
  raw->conn = conn;

  conn->on_connected = [this, raw, auto_handshake](bool ok) {
    if (!ok) {
      raw->closed = true;
      raw->closed_at = Sched().Now();
      if (raw->on_closed) raw->on_closed(*raw);
      return;
    }
    raw->tcp_established = true;
    if (raw->on_tcp_established) raw->on_tcp_established(*raw);
    if (auto_handshake) Send(*raw, bsproto::VersionMsg{});
  };
  conn->SetDataSink([this, raw](bsutil::ByteSpan data) { HandleSessionData(*raw, data); });
  conn->on_closed = [this, raw]() {
    if (raw->closed) return;
    raw->closed = true;
    raw->conn = nullptr;
    raw->closed_at = Sched().Now();
    ++sessions_closed_;
    if (raw->on_closed) raw->on_closed(*raw);
  };
  return raw;
}

void AttackerNode::HandleSessionData(AttackSession& session, bsutil::ByteSpan data) {
  session.rx.Feed(data);
  bsproto::DecodeResult frame;
  while (session.rx.Next(frame)) {
    if (frame.status != bsproto::DecodeStatus::kOk) continue;

    if (session.on_message) session.on_message(session, frame.message);
    const bool was_ready = session.SessionReady();
    switch (bsproto::MsgTypeOf(frame.message)) {
      case bsproto::MsgType::kVersion:
        session.got_version = true;
        // Complete the version handshake from our side — but only in auto
        // mode; raw sessions control every byte themselves.
        if (session.auto_handshake) Send(session, bsproto::VerackMsg{});
        break;
      case bsproto::MsgType::kVerack:
        session.got_verack = true;
        break;
      case bsproto::MsgType::kPing:
        // Stay alive: answer keepalives so long-running floods are not
        // timed out by the target.
        Send(session, bsproto::PongMsg{std::get<bsproto::PingMsg>(frame.message).nonce});
        break;
      default:
        break;  // the attacker ignores everything else
    }
    if (!was_ready && session.SessionReady() && session.on_ready) {
      session.on_ready(session);
    }
    if (session.closed) break;
  }
}

void AttackerNode::Send(AttackSession& session, const bsproto::Message& msg) {
  SendRawFrame(session, bsproto::EncodeMessage(magic_, msg));
}

void AttackerNode::SendRawFrame(AttackSession& session, bsutil::ByteSpan frame) {
  if (session.closed || session.conn == nullptr || !session.conn->IsEstablished()) return;
  if (tracer_ != nullptr) {
    // bytes_sent is exactly the app-stream offset of this frame: every byte
    // on the session goes through here. Raw frames may be deliberately
    // bogus, so label with a header-only peek (no checksum).
    const bsobs::TraceContext ctx = tracer_->Begin();
    tracer_->NoteFrameSent(
        bsobs::SpanStreamKey{
            bsobs::PackEndpoint(session.local.ip, session.local.port),
            bsobs::PackEndpoint(session.target.ip, session.target.port)},
        session.bytes_sent, static_cast<std::uint32_t>(frame.size()), ctx);
    bsproto::FramePeek peek;
    const bool peeked = bsproto::PeekFrame(magic_, frame, peek);
    bsobs::SpanRecord rec;
    rec.time = Sched().Now();
    rec.trace_id = ctx.trace_id;
    rec.span_id = ctx.span_id;
    rec.kind = bsobs::SpanKind::kSend;
    rec.msg_type = peeked ? static_cast<std::int16_t>(peek.msg_type) : -1;
    rec.node_ip = Ip();
    rec.peer_id = session.id;
    rec.a = static_cast<std::int64_t>(frame.size());
    tracer_->Log().Record(rec);
  }
  session.conn->Send(frame);
  ++session.messages_sent;
  session.bytes_sent += frame.size();
  ++total_sent_;
}

void AttackerNode::CloseSession(AttackSession& session) {
  if (session.closed || session.conn == nullptr) return;
  session.closed = true;
  session.closed_at = Sched().Now();
  bsim::TcpConnection* conn = session.conn;
  session.conn = nullptr;
  conn->on_closed = nullptr;
  conn->Reset();
}

std::vector<AttackSession*> AttackerNode::LiveSessions() {
  std::vector<AttackSession*> out;
  for (const auto& s : sessions_) {
    if (!s->closed) out.push_back(s.get());
  }
  return out;
}

}  // namespace bsattack
