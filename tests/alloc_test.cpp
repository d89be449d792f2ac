// Zero-allocation receive path. This binary replaces the global operator new
// with a counting one, then checks that a warm StreamDecoder::Next decodes
// PING, PONG and every frame the node drops without a heap allocation (and
// an INV with only the allocation of its inventory vector), and
// that Node::OnData handles a flood of unknown-command frames (the paper's
// unscored BM-DoS frame) without one either. Each unscored frame's fixed
// cost is what a flooder spends the victim's CPU on, so an allocation there
// is a cost the attacker buys for free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "core/transport.hpp"
#include "proto/codec.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using bsproto::DecodeStatus;
using bsutil::ByteVec;

constexpr std::uint32_t kMagic = 0xfabfb5da;

std::uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// `count` copies of `frame`, back to back.
ByteVec Repeat(const ByteVec& frame, std::size_t count) {
  ByteVec out;
  out.reserve(frame.size() * count);
  for (std::size_t i = 0; i < count; ++i) out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

/// A header with no payload, declaring `length` bytes.
ByteVec BareHeader(std::uint32_t magic, const std::string& command, std::uint32_t length) {
  bsproto::MessageHeader header;
  header.magic = magic;
  header.command = command;
  header.length = length;
  return header.Serialize();
}

struct FrameCase {
  const char* name;
  ByteVec frame;
  DecodeStatus status;
};

std::vector<FrameCase> Cases() {
  const std::array<std::uint8_t, 4> wrong = {0xde, 0xad, 0xbe, 0xef};
  ByteVec padding = BareHeader(kMagic, "ping", 0);
  padding[4 + 5] = 'X';  // "ping\0X": a byte after the NUL padding
  return {
      {"ping", bsproto::EncodeMessage(kMagic, bsproto::PingMsg{7}), DecodeStatus::kOk},
      {"pong", bsproto::EncodeMessage(kMagic, bsproto::PongMsg{7}), DecodeStatus::kOk},
      {"unknown-command", bsproto::EncodeRaw(kMagic, "floodcmd", ByteVec(32, 0x5a)),
       DecodeStatus::kUnknownCommand},
      {"bad-checksum", bsproto::EncodeRaw(kMagic, "ping", ByteVec(8, 1), &wrong),
       DecodeStatus::kBadChecksum},
      {"bad-magic", BareHeader(kMagic ^ 1, "ping", 0), DecodeStatus::kBadMagic},
      {"oversize",
       BareHeader(kMagic, "block", static_cast<std::uint32_t>(bsproto::kMaxFramePayload) + 1),
       DecodeStatus::kOversize},
      {"padding-malformed", padding, DecodeStatus::kMalformed},
  };
}

TEST(ZeroAlloc, WarmStreamDecoderNextAllocatesNothing) {
  constexpr std::size_t kFrames = 200;
  for (const FrameCase& c : Cases()) {
    const ByteVec stream = Repeat(c.frame, kFrames);
    bsproto::StreamDecoder decoder(kMagic);
    bsproto::DecodeResult result;
    // Warm: the decoder's buffer reaches its size and `result` holds the
    // frame's message alternative.
    decoder.Feed(stream);
    while (decoder.Next(result)) {
    }
    decoder.Feed(stream);

    std::size_t decoded = 0;
    const std::uint64_t before = Allocations();
    while (decoder.Next(result)) {
      if (result.status != c.status) break;
      ++decoded;
    }
    const std::uint64_t allocations = Allocations() - before;
    EXPECT_EQ(result.status, c.status) << c.name;
    EXPECT_EQ(decoded, kFrames) << c.name;
    EXPECT_EQ(allocations, 0u) << c.name << ": " << allocations << " allocations over "
                               << kFrames << " frames";
  }
}

TEST(ZeroAlloc, WarmStreamDecoderNextAllocatesOnlyTheInventoryVector) {
  // A typed payload with a vector decodes into one allocation: the vector
  // itself. A second one means the decoded message was copied on its way out.
  bsproto::InvMsg inv;
  inv.inventory.resize(3);
  const ByteVec frame = bsproto::EncodeMessage(kMagic, inv);
  bsproto::StreamDecoder decoder(kMagic);
  bsproto::DecodeResult result;
  decoder.Feed(Repeat(frame, 2));
  ASSERT_TRUE(decoder.Next(result));  // warm: `result` holds an InvMsg

  const std::uint64_t before = Allocations();
  ASSERT_TRUE(decoder.Next(result));
  const std::uint64_t allocations = Allocations() - before;
  EXPECT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<bsproto::InvMsg>(result.message).inventory.size(), 3u);
  EXPECT_EQ(allocations, 1u);
}

TEST(ZeroAlloc, FreshDecodeResultAllocatesNothing) {
  const std::uint64_t before = Allocations();
  {
    bsproto::DecodeResult result;
    EXPECT_EQ(result.status, DecodeStatus::kNeedMoreData);
  }
  EXPECT_EQ(Allocations() - before, 0u);
}

/// Connection double: bytes arrive through Deliver(); sends are dropped.
class SinkConn final : public bsnet::TransportConn {
 public:
  explicit SinkConn(bsproto::Endpoint remote) : remote_(remote) {}
  bsproto::Endpoint Local() const override { return {0x0a000001, 8333}; }
  bsproto::Endpoint Remote() const override { return remote_; }
  bool IsInbound() const override { return true; }
  bool IsEstablished() const override { return true; }
  void SetDataSink(std::function<void(bsutil::ByteSpan)> sink) override {
    sink_ = std::move(sink);
  }
  void Send(bsutil::ByteSpan) override {}
  void Close() override {}
  void Reset() override {}
  void Deliver(bsutil::ByteSpan bytes) { sink_(bytes); }

 private:
  bsproto::Endpoint remote_;
  std::function<void(bsutil::ByteSpan)> sink_;
};

class SinkTransport final : public bsnet::Transport {
 public:
  std::uint32_t Ip() const override { return 0x0a000001; }
  void Listen(std::uint16_t, AcceptCallback on_accept) override {
    accept_ = std::move(on_accept);
  }
  void StopListening(std::uint16_t) override { accept_ = nullptr; }
  bsnet::TransportConn* Connect(const bsproto::Endpoint&) override { return nullptr; }
  bool IsSelf(const bsproto::Endpoint& ep) const override { return ep.ip == Ip(); }
  void Abandon() override {}

  SinkConn& Accept(bsproto::Endpoint remote) {
    conns_.push_back(std::make_unique<SinkConn>(remote));
    accept_(*conns_.back());
    return *conns_.back();
  }

 private:
  AcceptCallback accept_;
  std::vector<std::unique_ptr<SinkConn>> conns_;
};

TEST(ZeroAlloc, NodeOnDataAllocatesNothingPerUnknownCommandFrame) {
  // The flood frame: an unknown command with a 32-byte payload, 56 bytes on
  // the wire, delivered in 64 KiB reads as a socket would hand them over.
  const ByteVec frame = bsproto::EncodeRaw(kMagic, "floodcmd", ByteVec(32, 0x5a));
  const std::size_t per_delivery = 65536 / frame.size();
  const ByteVec delivery = Repeat(frame, per_delivery);

  bsim::Scheduler sched;
  SinkTransport transport;
  bsnet::NodeConfig config;
  config.chain.magic = kMagic;
  bsnet::Node node(sched, transport, config);
  node.Start();
  SinkConn& conn = transport.Accept({0x0a000002, 50000});

  // Warm: the peer's decoder buffer and the node's event ring reach their
  // steady size.
  for (int i = 0; i < 3; ++i) conn.Deliver(delivery);
  const std::uint64_t ignored_before = node.FramesIgnoredUnknownCommand();

  constexpr int kDeliveries = 8;
  const std::uint64_t before = Allocations();
  for (int i = 0; i < kDeliveries; ++i) conn.Deliver(delivery);
  const std::uint64_t allocations = Allocations() - before;

  const std::uint64_t frames = node.FramesIgnoredUnknownCommand() - ignored_before;
  EXPECT_EQ(frames, kDeliveries * per_delivery);
  EXPECT_EQ(allocations, 0u) << allocations << " allocations over " << frames << " frames";
}

}  // namespace
