#include "core/real_transport.hpp"

#include <cerrno>

#include <algorithm>
#include <array>
#include <utility>

namespace bsnet {

namespace {

bsim::SockAddr ToSockAddr(const bsproto::Endpoint& ep) {
  return bsim::SockAddr{ep.ip, ep.port};
}

bsproto::Endpoint ToEndpoint(const bsim::SockAddr& addr) {
  return bsproto::Endpoint{addr.ip, addr.port};
}

}  // namespace

// ---------------------------------------------------------------------------
// RealConn

RealConn::RealConn(RealTransport& transport, std::uint64_t id, int fd,
                   bool inbound, bsproto::Endpoint local, bsproto::Endpoint remote,
                   State state)
    : transport_(transport),
      id_(id),
      fd_(fd),
      inbound_(inbound),
      local_(local),
      remote_(remote),
      state_(state),
      recv_buffer_cap_(transport.config_.recv_buffer_cap) {}

void RealConn::SetDataSink(std::function<void(bsutil::ByteSpan)> sink) {
  on_data_ = std::move(sink);
  if (!on_data_ || rx_pending_.empty()) return;
  bsutil::ByteVec drained;
  drained.swap(rx_pending_);
  on_data_(drained);
}

void RealConn::Send(bsutil::ByteSpan data) {
  if (state_ == State::kClosed || data.empty()) return;
  write_queue_.push_back(Frame{bsutil::ByteVec(data.begin(), data.end())});
  queued_bytes_ += data.size();

  // Drop-oldest shedding at the cap: whole frames only, and never the front
  // frame once part of it reached the wire — truncating it mid-frame would
  // desynchronize the peer's decoder for the rest of the session.
  const std::size_t cap = transport_.config_.max_write_queue_bytes;
  while (cap > 0 && queued_bytes_ > cap && write_queue_.size() > 1) {
    const std::size_t droppable = front_offset_ > 0 ? 1 : 0;
    if (write_queue_.size() <= droppable + 1) break;
    auto victim = write_queue_.begin() + static_cast<std::ptrdiff_t>(droppable);
    queued_bytes_ -= victim->data.size();
    bytes_shed_ += victim->data.size();
    ++frames_shed_;
    ++transport_.frames_shed_;
    if (transport_.m_frames_shed_ != nullptr) transport_.m_frames_shed_->Inc();
    write_queue_.erase(victim);
  }

  if (state_ == State::kEstablished) transport_.FlushQueue(*this);
}

void RealConn::Close() {
  if (state_ == State::kClosed) return;
  // Best-effort final flush, then a clean close: the peer reads EOF.
  if (state_ == State::kEstablished) transport_.FlushQueue(*this);
  if (state_ == State::kClosed) return;  // flush hit a fatal send error
  const bool was_connecting = state_ == State::kConnecting;
  state_ = State::kClosed;
  auto on_closed_cb = std::move(on_closed);
  auto on_connected_cb = std::move(on_connected);
  transport_.Retire(*this);
  if (was_connecting && on_connected_cb) {
    on_connected_cb(false);
  } else if (!was_connecting && on_closed_cb) {
    on_closed_cb();
  }
}

void RealConn::Reset() {
  if (state_ == State::kClosed) return;
  // Abortive: queued data is dropped on the floor, like RST.
  write_queue_.clear();
  queued_bytes_ = 0;
  front_offset_ = 0;
  state_ = State::kClosed;
  on_closed = nullptr;
  on_connected = nullptr;
  transport_.Retire(*this);
}

// ---------------------------------------------------------------------------
// RealTransport

RealTransport::RealTransport(EventLoop& loop, bsim::SocketApi& api,
                             RealTransportConfig config)
    : loop_(loop), api_(api), config_(config) {
  if (config_.metrics != nullptr) {
    bsobs::MetricsRegistry& reg = *config_.metrics;
    m_accepts_ =
        reg.GetCounter("bs_rt_accepts_total", "Inbound connections accepted");
    m_connect_failures_ = reg.GetCounter(
        "bs_rt_connect_failures_total",
        "Outbound connects that failed (refused, reset, or timed out)");
    m_teardowns_ = reg.GetCounter("bs_rt_teardowns_total",
                                  "Established connections torn down");
    m_bytes_in_ = reg.GetCounter("bs_rt_bytes_in_total", "Bytes read from peers");
    m_bytes_out_ =
        reg.GetCounter("bs_rt_bytes_out_total", "Bytes written to peers");
    m_frames_shed_ = reg.GetCounter(
        "bs_rt_frames_shed_total",
        "Whole frames shed from bounded write queues under pressure");
  }
}

RealTransport::~RealTransport() { Abandon(); }

void RealTransport::Listen(std::uint16_t port, AcceptCallback on_accept) {
  const int fd = api_.OpenStream();
  if (fd < 0) {
    last_listen_error_ = fd;
    return;
  }
  int rc = api_.Bind(fd, bsim::SockAddr{config_.bind_ip, port});
  if (rc == 0) rc = api_.Listen(fd, 128);
  if (rc != 0) {
    api_.CloseFd(fd);
    last_listen_error_ = rc;
    return;
  }
  bsim::SockAddr bound{};
  api_.LocalEndpoint(fd, bound);
  Listener listener;
  listener.fd = fd;
  listener.bound_port = bound.port;
  listener.on_accept = std::move(on_accept);
  listeners_[port] = std::move(listener);
  last_listen_error_ = 0;
  loop_.AddFd(fd, EPOLLIN, [this, port](std::uint32_t) { HandleAccept(port); });
}

void RealTransport::StopListening(std::uint16_t port) {
  const auto it = listeners_.find(port);
  if (it == listeners_.end()) return;
  loop_.DelFd(it->second.fd);
  api_.CloseFd(it->second.fd);
  listeners_.erase(it);
}

std::uint16_t RealTransport::BoundPort(std::uint16_t requested) const {
  const auto it = listeners_.find(requested);
  return it == listeners_.end() ? 0 : it->second.bound_port;
}

void RealTransport::HandleAccept(std::uint16_t port) {
  const auto lit = listeners_.find(port);
  if (lit == listeners_.end()) return;
  const int listen_fd = lit->second.fd;
  // Accept until EAGAIN, skipping transient per-connection failures: a peer
  // that RSTs between the kernel's handshake and our accept4 must not stall
  // the whole listener.
  for (int i = 0; i < 64; ++i) {
    bsim::SockAddr peer{};
    const int fd = api_.Accept(listen_fd, peer);
    if (fd == -EAGAIN || fd == -EWOULDBLOCK) return;
    if (fd == -ECONNABORTED || fd == -EINTR) continue;
    if (fd < 0) return;  // persistent listener error; next wakeup retries
    bsim::SockAddr local{};
    api_.LocalEndpoint(fd, local);
    const std::uint64_t id = next_conn_id_++;
    std::unique_ptr<RealConn> conn(
        new RealConn(*this, id, fd, /*inbound=*/true, ToEndpoint(local),
                     ToEndpoint(peer), RealConn::State::kEstablished));
    RealConn* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    loop_.AddFd(fd, EPOLLIN,
                [this, id](std::uint32_t events) { HandleConnEvents(id, events); });
    ++accepts_;
    if (m_accepts_ != nullptr) m_accepts_->Inc();
    // Re-validate the listener each iteration: the accept callback may stop
    // listening (or the conn may already be gone if the callback reset it).
    lit->second.on_accept(*raw);
    if (listeners_.find(port) == listeners_.end()) return;
  }
}

TransportConn* RealTransport::Connect(const bsproto::Endpoint& remote) {
  const int fd = api_.OpenStream();
  if (fd < 0) {
    ++connect_failures_;
    if (m_connect_failures_ != nullptr) m_connect_failures_->Inc();
    return nullptr;
  }
  const std::uint64_t id = next_conn_id_++;
  const int rc = api_.Connect(fd, ToSockAddr(remote));
  if (rc != 0 && rc != -EINPROGRESS && rc != -EINTR) {
    // Immediate refusal. The caller wires on_connected after we return, so
    // report the failure from a zero-delay timer, never synchronously.
    api_.CloseFd(fd);
    std::unique_ptr<RealConn> conn(
        new RealConn(*this, id, -1, /*inbound=*/false, bsproto::Endpoint{},
                     remote, RealConn::State::kConnecting));
    RealConn* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    loop_.Sched().After(0, [this, id]() {
      const auto it = conns_.find(id);
      if (it == conns_.end()) return;
      FailConnect(*it->second);
    });
    return raw;
  }

  const bool instant = rc == 0;
  std::unique_ptr<RealConn> conn(
      new RealConn(*this, id, fd, /*inbound=*/false, bsproto::Endpoint{},
                   remote, RealConn::State::kConnecting));
  RealConn* raw = conn.get();
  conns_.emplace(id, std::move(conn));
  loop_.AddFd(fd, instant ? EPOLLOUT | EPOLLIN : EPOLLOUT,
              [this, id](std::uint32_t events) { HandleConnEvents(id, events); });
  if (instant) {
    // Loopback can connect synchronously; finish on the next loop turn so
    // the caller's on_connected wiring always wins the race.
    loop_.Sched().After(0, [this, id]() {
      const auto it = conns_.find(id);
      if (it != conns_.end() && it->second->state_ == RealConn::State::kConnecting) {
        FinishConnect(*it->second);
      }
    });
  }
  // Supervision: a connect that neither completes nor errors by the deadline
  // (SYN blackholed, listener wedged) is failed and torn down here.
  loop_.Sched().After(config_.connect_timeout, [this, id]() {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    if (it->second->state_ != RealConn::State::kConnecting) return;
    ++connect_timeouts_;
    FailConnect(*it->second);
  });
  return raw;
}

void RealTransport::HandleConnEvents(std::uint64_t id, std::uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  RealConn& conn = *it->second;
  if (conn.state_ == RealConn::State::kConnecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) FinishConnect(conn);
    return;
  }
  if (conn.state_ != RealConn::State::kEstablished) return;
  if ((events & EPOLLIN) != 0) {
    ReadReady(conn);
    if (conns_.find(id) == conns_.end()) return;  // torn down during reads
    if (conn.state_ != RealConn::State::kEstablished) return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushQueue(conn);
    if (conns_.find(id) == conns_.end()) return;
    if (conn.state_ != RealConn::State::kEstablished) return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    Teardown(conn);
  }
}

void RealTransport::FinishConnect(RealConn& conn) {
  const int err = api_.SockError(conn.fd_);
  if (err != 0) {
    ++connect_failures_;
    if (m_connect_failures_ != nullptr) m_connect_failures_->Inc();
    FailConnect(conn);
    return;
  }
  bsim::SockAddr local{};
  api_.LocalEndpoint(conn.fd_, local);
  conn.local_ = ToEndpoint(local);
  conn.state_ = RealConn::State::kEstablished;
  loop_.ModFd(conn.fd_, conn.write_queue_.empty() ? EPOLLIN : EPOLLIN | EPOLLOUT);
  auto cb = std::move(conn.on_connected);
  if (cb) cb(true);
  // Anything queued while connecting (uncommon; Node sends only after
  // establishment) goes out now.
  const auto it = conns_.find(conn.id_);
  if (it != conns_.end() && conn.state_ == RealConn::State::kEstablished &&
      !conn.write_queue_.empty()) {
    FlushQueue(conn);
  }
}

void RealTransport::ReadReady(RealConn& conn) {
  std::array<std::uint8_t, 64 * 1024> buf;
  std::size_t total = 0;
  while (total < config_.read_budget_per_wakeup) {
    const long n = api_.Recv(conn.fd_, buf.data(), buf.size());
    if (n == -EAGAIN || n == -EWOULDBLOCK) return;
    if (n == -EINTR) continue;
    if (n == 0 || n < 0) {
      // Orderly EOF or a hard error (ECONNRESET et al.): either way the
      // session is over; the ban machinery never blames the *honest* local
      // peer for wire failures — that is the chaos sweep's core invariant.
      Teardown(conn);
      return;
    }
    total += static_cast<std::size_t>(n);
    bytes_in_ += static_cast<std::uint64_t>(n);
    if (m_bytes_in_ != nullptr) m_bytes_in_->Inc(static_cast<std::uint64_t>(n));
    const bsutil::ByteSpan span(buf.data(), static_cast<std::size_t>(n));
    if (conn.on_data_) {
      conn.on_data_(span);
      // The sink may have closed/reset us (misbehavior disconnect).
      if (conn.state_ != RealConn::State::kEstablished) return;
    } else {
      conn.rx_pending_.insert(conn.rx_pending_.end(), span.begin(), span.end());
      if (conn.recv_buffer_cap_ > 0 &&
          conn.rx_pending_.size() > conn.recv_buffer_cap_) {
        const std::size_t excess = conn.rx_pending_.size() - conn.recv_buffer_cap_;
        conn.rx_pending_.erase(conn.rx_pending_.begin(),
                               conn.rx_pending_.begin() +
                                   static_cast<std::ptrdiff_t>(excess));
      }
    }
  }
  // Budget exhausted; level-triggered epoll re-arms us on the next wakeup.
}

void RealTransport::FlushQueue(RealConn& conn) {
  while (!conn.write_queue_.empty()) {
    const RealConn::Frame& front = conn.write_queue_.front();
    const std::size_t remaining = front.data.size() - conn.front_offset_;
    const long n =
        api_.Send(conn.fd_, front.data.data() + conn.front_offset_, remaining);
    if (n == -EAGAIN || n == -EWOULDBLOCK) {
      ++send_eagain_;
      break;
    }
    if (n == -EINTR) continue;
    if (n < 0) {
      // EPIPE/ECONNRESET: the peer is gone. Under RealConn::Send this fires
      // on_closed from inside Send(), which the TransportConn contract
      // allows; the conn object itself survives in the graveyard.
      Teardown(conn);
      return;
    }
    bytes_out_ += static_cast<std::uint64_t>(n);
    if (m_bytes_out_ != nullptr) m_bytes_out_->Inc(static_cast<std::uint64_t>(n));
    conn.queued_bytes_ -= static_cast<std::size_t>(n);
    conn.front_offset_ += static_cast<std::size_t>(n);
    if (conn.front_offset_ < front.data.size()) {
      // Short write: the kernel took part of the frame; keep the rest at the
      // queue front and try again on EPOLLOUT.
      ++conn.partial_writes_;
      break;
    }
    conn.write_queue_.pop_front();
    conn.front_offset_ = 0;
  }
  UpdateWriteInterest(conn);
}

void RealTransport::UpdateWriteInterest(RealConn& conn) {
  if (conn.state_ != RealConn::State::kEstablished) return;
  loop_.ModFd(conn.fd_,
              conn.write_queue_.empty() ? EPOLLIN : EPOLLIN | EPOLLOUT);
}

void RealTransport::FailConnect(RealConn& conn) {
  conn.state_ = RealConn::State::kClosed;
  auto cb = std::move(conn.on_connected);
  conn.on_closed = nullptr;
  Retire(conn);
  if (cb) cb(false);
}

void RealTransport::Teardown(RealConn& conn) {
  ++teardowns_;
  if (m_teardowns_ != nullptr) m_teardowns_->Inc();
  conn.state_ = RealConn::State::kClosed;
  auto cb = std::move(conn.on_closed);
  conn.on_connected = nullptr;
  Retire(conn);
  if (cb) cb();
}

void RealTransport::Retire(RealConn& conn) {
  conn.state_ = RealConn::State::kClosed;
  if (conn.fd_ >= 0) {
    loop_.DelFd(conn.fd_);
    api_.CloseFd(conn.fd_);
    conn.fd_ = -1;
  }
  const auto it = conns_.find(conn.id_);
  if (it == conns_.end()) return;
  // Deletion is deferred one loop turn: Retire is reached from inside the
  // connection's own callbacks (read sink, flush, accept), and the sim-side
  // Host defers ReleaseConnection the same way.
  graveyard_.push_back(std::move(it->second));
  conns_.erase(it);
  if (!graveyard_drain_scheduled_) {
    graveyard_drain_scheduled_ = true;
    loop_.Sched().After(0, [this]() { DrainGraveyard(); });
  }
}

void RealTransport::DrainGraveyard() {
  graveyard_drain_scheduled_ = false;
  graveyard_.clear();
}

void RealTransport::Abandon() {
  for (auto& [id, conn] : conns_) {
    conn->on_connected = nullptr;
    conn->on_closed = nullptr;
    conn->on_data_ = nullptr;
    conn->state_ = RealConn::State::kClosed;
    if (conn->fd_ >= 0) {
      loop_.DelFd(conn->fd_);
      api_.CloseFd(conn->fd_);
      conn->fd_ = -1;
    }
    graveyard_.push_back(std::move(conn));
  }
  conns_.clear();
  for (auto& [port, listener] : listeners_) {
    loop_.DelFd(listener.fd);
    api_.CloseFd(listener.fd);
  }
  listeners_.clear();
  if (!graveyard_drain_scheduled_ && !graveyard_.empty()) {
    graveyard_drain_scheduled_ = true;
    loop_.Sched().After(0, [this]() { DrainGraveyard(); });
  }
}

}  // namespace bsnet
