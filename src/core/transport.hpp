#pragma once

// Transport seam between Node and the substrate that moves its bytes.
//
// Node speaks only to these two interfaces; the discrete-event simulator
// (SimTransport over bsim::Network/TcpConnection) and the real-socket
// backend (RealTransport over epoll + SocketApi) both implement them.
// The header is intentionally dependency-light (bsproto + bsutil only) so
// bsim::TcpConnection can inherit TransportConn directly without creating
// a bsim -> bsnet link cycle: the sim connection *is* a transport
// connection, which keeps the extraction bit-identical for the paper
// benches — no wrapper objects, no extra scheduler events.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "proto/netaddr.hpp"
#include "util/bytes.hpp"

namespace bsnet {

/// One bidirectional byte-stream connection to a peer. Callbacks are
/// plain public members (matching the original TcpConnection surface):
/// the owner wires them after Connect()/accept and detaches them (assigns
/// nullptr) before tearing a peer down so no callback fires mid-teardown.
class TransportConn {
 public:
  virtual ~TransportConn() = default;

  /// Fired once on an outbound connection: ok=true when the handshake
  /// completed, ok=false on refusal/timeout/reset before establishment.
  std::function<void(bool ok)> on_connected;
  /// Fired when the peer (or the substrate) closes an established
  /// connection. Not fired for locally initiated Close()/Reset() calls
  /// made after the owner detached it.
  ///
  /// May fire synchronously from inside Send() or Close(): the simulator's
  /// reliable-mode retransmit overflow resets the connection there, and
  /// RealTransport tears down on a fatal write error there. The owner must
  /// therefore not free anything its caller may still hold; Node only
  /// marks the peer and frees it when its turn ends.
  std::function<void()> on_closed;

  virtual bsproto::Endpoint Local() const = 0;
  virtual bsproto::Endpoint Remote() const = 0;
  virtual bool IsInbound() const = 0;
  virtual bool IsEstablished() const = 0;

  /// Replaces the received-data sink. Passing a valid sink may
  /// synchronously drain bytes that arrived before the sink was wired;
  /// passing nullptr detaches without draining.
  virtual void SetDataSink(std::function<void(bsutil::ByteSpan)> sink) = 0;

  /// Queues bytes toward the peer. Never blocks; bounded backends shed
  /// under pressure rather than stall.
  virtual void Send(bsutil::ByteSpan data) = 0;

  /// Graceful close (FIN-like). Safe to call in any state.
  virtual void Close() = 0;

  /// Abortive close (RST-like): drops queued data and tears down now.
  virtual void Reset() = 0;

  /// Caps the receive-side buffering, where the backend supports it.
  virtual void SetReceiveBufferCap(std::size_t cap) { (void)cap; }
};

/// Factory/endpoint surface for one node's connections.
class Transport {
 public:
  using AcceptCallback = std::function<void(TransportConn& conn)>;

  virtual ~Transport() = default;

  /// The node's own address, as peers will see it.
  virtual std::uint32_t Ip() const = 0;

  /// Starts accepting inbound connections on `port`; `on_accept` fires
  /// once per connection at establishment.
  virtual void Listen(std::uint16_t port, AcceptCallback on_accept) = 0;
  virtual void StopListening(std::uint16_t port) = 0;

  /// Begins an outbound connect. Returns the (not yet established)
  /// connection, or nullptr when the dial cannot even start. The caller
  /// wires `on_connected` on the returned connection; establishment is
  /// always reported asynchronously, never from inside Connect().
  virtual TransportConn* Connect(const bsproto::Endpoint& remote) = 0;

  /// True when dialing `ep` would connect the node to itself.
  virtual bool IsSelf(const bsproto::Endpoint& ep) const = 0;

  /// Crash-style teardown: drop every connection and listener silently
  /// (no callbacks), as a power failure would.
  virtual void Abandon() = 0;
};

}  // namespace bsnet
