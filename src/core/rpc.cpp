#include "core/rpc.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "core/banman.hpp"
#include "crypto/sha256.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace bsnet {

namespace {

constexpr std::uint32_t kLoopbackIp = 0x7f000001;
constexpr std::size_t kMaxLineBytes = 1 << 20;  // drop clients that exceed it

std::string FormatIp(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

std::string ErrorLine(const std::string& message) {
  return bsutil::JsonObject().Add("error", message).Render();
}

std::string ResultLine(const char* result) {
  return bsutil::JsonObject().Add("result", result).Render();
}

std::string ResultArray(const std::vector<std::string>& items) {
  return bsutil::JsonObject().AddRaw("result", bsutil::JsonArray(items)).Render();
}

/// `key` of `obj` as a number, `fallback` when absent; nullopt when present
/// but not a number.
std::optional<double> NumberOr(const bsutil::JsonValue& obj, const std::string& key,
                               double fallback) {
  const bsutil::JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->IsNumber()) return std::nullopt;
  return v->number;
}

}  // namespace

std::string FormatEndpoint(const bsproto::Endpoint& ep) {
  return FormatIp(ep.ip) + ":" + std::to_string(ep.port);
}

std::optional<std::uint32_t> ParseIp(const std::string& text) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char tail = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4) {
    return std::nullopt;
  }
  if (a > 255 || b > 255 || c > 255 || d > 255) return std::nullopt;
  return (a << 24) | (b << 16) | (c << 8) | d;
}

RpcServer::RpcServer(EventLoop& loop, bsim::SocketApi& api, Node& node,
                     std::uint16_t port)
    : loop_(loop), api_(api), node_(node) {
  listen_fd_ = api_.OpenStream();
  if (listen_fd_ < 0) {
    listen_error_ = listen_fd_;
    listen_fd_ = -1;
    return;
  }
  int rc = api_.Bind(listen_fd_, {kLoopbackIp, port});
  if (rc == 0) rc = api_.Listen(listen_fd_, 16);
  if (rc != 0) {
    listen_error_ = rc;
    api_.CloseFd(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  bsim::SockAddr bound{};
  api_.LocalEndpoint(listen_fd_, bound);
  port_ = bound.port;
  loop_.AddFd(listen_fd_, EPOLLIN, [this](std::uint32_t) { HandleAccept(); });
}

RpcServer::~RpcServer() {
  for (auto& [fd, client] : clients_) {
    loop_.DelFd(fd);
    api_.CloseFd(fd);
  }
  clients_.clear();
  if (listen_fd_ >= 0) {
    loop_.DelFd(listen_fd_);
    api_.CloseFd(listen_fd_);
  }
}

void RpcServer::HandleAccept() {
  for (int i = 0; i < 16; ++i) {
    bsim::SockAddr peer{};
    const int fd = api_.Accept(listen_fd_, peer);
    if (fd == -EAGAIN || fd == -EWOULDBLOCK) return;
    if (fd == -ECONNABORTED || fd == -EINTR) continue;
    if (fd < 0) return;
    clients_[fd] = Client{fd, {}, {}};
    loop_.AddFd(fd, EPOLLIN,
                [this, fd](std::uint32_t events) { HandleClient(fd, events); });
  }
}

void RpcServer::HandleClient(int fd, std::uint32_t events) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  Client& client = it->second;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseClient(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushClient(client);
    if (clients_.find(fd) == clients_.end()) return;
  }
  if ((events & EPOLLIN) == 0) return;

  char buf[4096];
  for (;;) {
    const long n = api_.Recv(fd, buf, sizeof buf);
    if (n == -EAGAIN || n == -EWOULDBLOCK) break;
    if (n == -EINTR) continue;
    if (n <= 0) {
      CloseClient(fd);
      return;
    }
    client.in.append(buf, static_cast<std::size_t>(n));
    if (client.in.size() > kMaxLineBytes) {
      CloseClient(fd);
      return;
    }
  }

  std::size_t nl;
  while ((nl = client.in.find('\n')) != std::string::npos) {
    std::string line = client.in.substr(0, nl);
    client.in.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    client.out += Dispatch(line);
    client.out += '\n';
  }
  FlushClient(client);
}

void RpcServer::FlushClient(Client& client) {
  while (!client.out.empty()) {
    const long n = api_.Send(client.fd, client.out.data(), client.out.size());
    if (n == -EAGAIN || n == -EWOULDBLOCK) {
      loop_.ModFd(client.fd, EPOLLIN | EPOLLOUT);
      return;
    }
    if (n == -EINTR) continue;
    if (n <= 0) {
      CloseClient(client.fd);
      return;
    }
    client.out.erase(0, static_cast<std::size_t>(n));
  }
  loop_.ModFd(client.fd, EPOLLIN);
}

void RpcServer::CloseClient(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  loop_.DelFd(fd);
  api_.CloseFd(fd);
  clients_.erase(it);
}

std::string RpcServer::Dispatch(const std::string& line) {
  ++requests_served_;
  const auto parsed = bsutil::ParseJson(line);
  if (!parsed || !parsed->IsObject()) return ErrorLine("malformed request");
  const bsutil::JsonValue* method = parsed->Find("method");
  if (method == nullptr || !method->IsString()) {
    return ErrorLine("missing method");
  }

  if (method->str == "getinfo") {
    std::size_t established = 0;
    for (const Peer* peer : node_.Peers()) {
      if (peer->got_version && peer->got_verack) ++established;
    }
    return bsutil::JsonObject()
        .AddRaw("result", bsutil::JsonObject()
                              .Add("height", node_.Chain().TipHeight())
                              .Add("peers", node_.Peers().size())
                              .Add("established", established)
                              .Add("bans", node_.Bans().Size())
                              .Add("sha256", bscrypto::Sha256::Implementation())
                              .Render())
        .Render();
  }

  if (method->str == "getpeerinfo") {
    std::vector<std::string> items;
    for (const Peer* peer : node_.Peers()) {
      items.push_back(bsutil::JsonObject()
                          .Add("id", peer->id)
                          .Add("addr", FormatEndpoint(peer->remote))
                          .Add("inbound", peer->inbound)
                          .Add("established", peer->got_version && peer->got_verack)
                          .Add("banscore", node_.Tracker().Score(peer->id))
                          .Add("messages", peer->messages_received)
                          .Add("bytes", peer->bytes_received)
                          .Add("last_pong_rtt_ns", peer->last_pong_rtt)
                          .Render());
    }
    return ResultArray(items);
  }

  if (method->str == "banlist") {
    std::vector<std::string> items;
    for (const bsproto::Endpoint& ep : node_.Bans().Snapshot()) {
      items.push_back(bsutil::JsonObject()
                          .Add("addr", FormatEndpoint(ep))
                          .Add("until_ns", node_.Bans().BanExpiry(ep))
                          .Render());
    }
    return ResultArray(items);
  }

  if (method->str == "metrics") {
    // RenderJson is single-line by construction; embed it raw.
    return bsutil::JsonObject().AddRaw("result", node_.Metrics().RenderJson()).Render();
  }

  if (method->str == "setban") {
    const bsutil::JsonValue* ip_text = parsed->Find("ip");
    if (ip_text == nullptr || !ip_text->IsString()) {
      return ErrorLine("setban: missing ip");
    }
    const auto ip = ParseIp(ip_text->str);
    if (!ip) return ErrorLine("setban: bad ip");
    const std::optional<double> port = NumberOr(*parsed, "port", 0);
    if (!port || !(*port >= 0 && *port <= 65535) || *port != std::floor(*port)) {
      return ErrorLine("setban: port must be an integer in 0-65535");
    }
    const bsproto::Endpoint who{*ip, static_cast<std::uint16_t>(*port)};
    const bsutil::JsonValue* remove = parsed->Find("remove");
    if (remove != nullptr && remove->kind == bsutil::JsonValue::Kind::kBool &&
        remove->boolean) {
      node_.Bans().Unban(who);
      return ResultLine("unbanned");
    }
    // The ban must end after now and before SimTime runs out; a double
    // below the rounded headroom converts to an integer inside it.
    const std::optional<double> seconds = NumberOr(*parsed, "seconds", 86400.0);
    const bsim::SimTime now = node_.Sched().Now();
    const double headroom =
        static_cast<double>(std::numeric_limits<bsim::SimTime>::max() - now);
    const double length = seconds ? *seconds * static_cast<double>(bsim::kSecond) : 0;
    if (!(length >= 1 && length < headroom)) {
      return ErrorLine("setban: seconds must be positive and end the ban within "
                       "the clock's range");
    }
    node_.Bans().Ban(who, now + static_cast<bsim::SimTime>(length));
    if (const Peer* peer = node_.FindPeerByRemote(who)) {
      node_.DisconnectPeer(peer->id);
    }
    return ResultLine("banned");
  }

  if (method->str == "stop") {
    stop_requested_ = true;
    if (on_stop) on_stop();
    return ResultLine("stopping");
  }

  return ErrorLine("unknown method: " + method->str);
}

// ---------------------------------------------------------------------------
// RpcCall — blocking client on raw sockets (never the daemon's loop thread).

std::optional<std::string> RpcCall(std::uint16_t port, const std::string& request,
                                   int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    ::close(fd);
    return std::nullopt;
  }

  std::string wire = request;
  wire += '\n';
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    reply.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = reply.find('\n');
    if (nl != std::string::npos) {
      ::close(fd);
      reply.resize(nl);
      return reply;
    }
    if (reply.size() > kMaxLineBytes) {
      ::close(fd);
      return std::nullopt;
    }
  }
}

}  // namespace bsnet
