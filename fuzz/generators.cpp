#include "fuzz/generators.hpp"

#include <stdexcept>

#include "core/addrman.hpp"
#include "proto/codec.hpp"
#include "proto/messages.hpp"
#include "store/format.hpp"

namespace bsfuzz {

namespace {

using bsproto::Message;
using bsproto::MsgType;

bscrypto::Hash256 RandomHash(bsutil::Rng& rng) {
  std::array<std::uint8_t, bscrypto::Hash256::kSize> bytes;
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
  return bscrypto::Hash256(bytes);
}

bsutil::ByteVec RandomBytes(bsutil::Rng& rng, std::size_t max_len) {
  bsutil::ByteVec out(rng.Below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

std::vector<bsproto::InvVect> RandomInventory(bsutil::Rng& rng) {
  std::vector<bsproto::InvVect> inv(rng.Below(5));
  for (auto& item : inv) {
    item.type = rng.Chance(0.5) ? bsproto::InvType::kTx : bsproto::InvType::kBlock;
    item.hash = RandomHash(rng);
  }
  return inv;
}

bschain::Transaction RandomTx(bsutil::Rng& rng) {
  bschain::Transaction tx;
  tx.inputs.resize(1 + rng.Below(3));
  for (auto& in : tx.inputs) {
    in.prevout.txid = RandomHash(rng);
    in.prevout.index = static_cast<std::uint32_t>(rng.Below(16));
    in.script_sig = RandomBytes(rng, 32);
  }
  tx.outputs.resize(1 + rng.Below(3));
  for (auto& out : tx.outputs) {
    out.value = static_cast<std::int64_t>(rng.Below(50'000'000));
    out.script_pubkey = RandomBytes(rng, 32);
  }
  return tx;
}

bschain::BlockHeader RandomHeader(bsutil::Rng& rng) {
  bschain::BlockHeader h;
  h.prev = RandomHash(rng);
  h.merkle_root = RandomHash(rng);
  h.time = static_cast<std::uint32_t>(rng.Next());
  h.bits = 0x207fffff;
  h.nonce = static_cast<std::uint32_t>(rng.Next());
  return h;
}

bsproto::NetAddr RandomNetAddr(bsutil::Rng& rng) {
  bsproto::NetAddr a;
  a.services = bsproto::kNodeNetwork;
  a.endpoint.ip = static_cast<std::uint32_t>(rng.Next());
  a.endpoint.port = static_cast<std::uint16_t>(rng.Next());
  return a;
}

/// One valid message of the given type with random, bounded contents.
Message ExemplarMessage(MsgType type, bsutil::Rng& rng) {
  switch (type) {
    case MsgType::kVersion: {
      bsproto::VersionMsg m;
      m.timestamp = static_cast<std::int64_t>(rng.Below(1u << 30));
      m.addr_recv = RandomNetAddr(rng);
      m.addr_from = RandomNetAddr(rng);
      m.nonce = rng.Next();
      m.start_height = static_cast<std::int32_t>(rng.Below(1000));
      m.relay = rng.Chance(0.5);
      return m;
    }
    case MsgType::kVerack: return bsproto::VerackMsg{};
    case MsgType::kAddr: {
      bsproto::AddrMsg m;
      m.addresses.resize(rng.Below(6));
      for (auto& ta : m.addresses) {
        ta.time = static_cast<std::uint32_t>(rng.Next());
        ta.addr = RandomNetAddr(rng);
      }
      return m;
    }
    case MsgType::kInv: return bsproto::InvMsg{RandomInventory(rng)};
    case MsgType::kGetData: return bsproto::GetDataMsg{RandomInventory(rng)};
    case MsgType::kNotFound: return bsproto::NotFoundMsg{RandomInventory(rng)};
    case MsgType::kGetBlocks: {
      bsproto::GetBlocksMsg m;
      m.locator.resize(1 + rng.Below(4));
      for (auto& h : m.locator) h = RandomHash(rng);
      m.stop = RandomHash(rng);
      return m;
    }
    case MsgType::kGetHeaders: {
      bsproto::GetHeadersMsg m;
      m.locator.resize(1 + rng.Below(4));
      for (auto& h : m.locator) h = RandomHash(rng);
      m.stop = RandomHash(rng);
      return m;
    }
    case MsgType::kHeaders: {
      bsproto::HeadersMsg m;
      m.headers.resize(rng.Below(4));
      for (auto& h : m.headers) h = RandomHeader(rng);
      return m;
    }
    case MsgType::kTx: return bsproto::TxMsg{RandomTx(rng)};
    case MsgType::kBlock: {
      bschain::Block block;
      block.header = RandomHeader(rng);
      block.txs.resize(1 + rng.Below(3));
      for (auto& tx : block.txs) tx = RandomTx(rng);
      return bsproto::BlockMsg{std::move(block)};
    }
    case MsgType::kPing: return bsproto::PingMsg{rng.Next()};
    case MsgType::kPong: return bsproto::PongMsg{rng.Next()};
    case MsgType::kGetAddr: return bsproto::GetAddrMsg{};
    case MsgType::kMempool: return bsproto::MempoolMsg{};
    case MsgType::kSendHeaders: return bsproto::SendHeadersMsg{};
    case MsgType::kFeeFilter:
      return bsproto::FeeFilterMsg{static_cast<std::int64_t>(rng.Below(100'000))};
    case MsgType::kSendCmpct: return bsproto::SendCmpctMsg{rng.Chance(0.5), 1};
    case MsgType::kCmpctBlock: {
      bsproto::CmpctBlockMsg m;
      m.header = RandomHeader(rng);
      m.nonce = rng.Next();
      m.short_ids.resize(rng.Below(5));
      for (auto& id : m.short_ids) id = rng.Next() & 0xFFFFFFFFFFFFULL;
      if (rng.Chance(0.5)) {
        m.prefilled.resize(1);
        m.prefilled[0].index = 0;
        m.prefilled[0].tx = RandomTx(rng);
      }
      return m;
    }
    case MsgType::kGetBlockTxn: {
      bsproto::GetBlockTxnMsg m;
      m.block_hash = RandomHash(rng);
      m.indexes.resize(1 + rng.Below(4));
      std::uint64_t idx = 0;
      for (auto& i : m.indexes) i = (idx += 1 + rng.Below(4));
      return m;
    }
    case MsgType::kBlockTxn: {
      bsproto::BlockTxnMsg m;
      m.block_hash = RandomHash(rng);
      m.txs.resize(1 + rng.Below(2));
      for (auto& tx : m.txs) tx = RandomTx(rng);
      return m;
    }
    case MsgType::kFilterLoad: {
      bsproto::FilterLoadMsg m;
      m.filter = RandomBytes(rng, 64);
      m.n_hash_funcs = static_cast<std::uint32_t>(rng.Below(20));
      m.n_tweak = static_cast<std::uint32_t>(rng.Next());
      m.n_flags = static_cast<std::uint8_t>(rng.Below(3));
      return m;
    }
    case MsgType::kFilterAdd: return bsproto::FilterAddMsg{RandomBytes(rng, 64)};
    case MsgType::kFilterClear: return bsproto::FilterClearMsg{};
    case MsgType::kMerkleBlock: {
      bsproto::MerkleBlockMsg m;
      m.header = RandomHeader(rng);
      m.total_txs = 1 + static_cast<std::uint32_t>(rng.Below(8));
      m.hashes.resize(1 + rng.Below(4));
      for (auto& h : m.hashes) h = RandomHash(rng);
      m.flags = RandomBytes(rng, 4);
      return m;
    }
    case MsgType::kReject: {
      bsproto::RejectMsg m;
      m.message = "tx";
      m.code = 0x10;
      m.reason = "fuzz";
      if (rng.Chance(0.5)) {
        const auto h = RandomHash(rng);
        m.data.assign(h.Bytes().begin(), h.Bytes().end());
      }
      return m;
    }
    case MsgType::kTipProbe: {
      bsproto::TipProbeMsg m;
      m.nonce = rng.Next();
      m.tips.resize(1 + rng.Below(4));
      std::int32_t height = static_cast<std::int32_t>(rng.Below(1'000'000));
      for (auto& tip : m.tips) {
        // Divergent vectors on purpose: heights may jump backwards as well
        // as forwards, which is what the partition monitor must digest.
        height += static_cast<std::int32_t>(rng.Below(16)) - 4;
        tip.height = height;
        tip.hash = RandomHash(rng);
      }
      return m;
    }
  }
  return bsproto::PingMsg{};
}

}  // namespace

bsutil::ByteVec CodecBase(bsutil::Rng& rng) {
  const auto& types = bsproto::AllMsgTypes();
  bsutil::ByteVec out;
  const std::size_t frames = 1 + rng.Below(4);
  for (std::size_t i = 0; i < frames; ++i) {
    const MsgType type = types[rng.Below(types.size())];
    const bsutil::ByteVec frame =
        bsproto::EncodeMessage(kFuzzMagic, ExemplarMessage(type, rng));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

bsutil::ByteVec TrackerBase(bsutil::Rng& rng) {
  bsutil::ByteVec out(8 + rng.Below(120));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

bsutil::ByteVec StoreBase(bsutil::Rng& rng) {
  bsutil::ByteVec region;
  const std::size_t txns = 1 + rng.Below(4);
  for (std::size_t t = 0; t < txns; ++t) {
    const std::size_t records = 1 + rng.Below(3);
    for (std::size_t i = 0; i < records; ++i) {
      const bsutil::ByteVec payload = RandomBytes(rng, 48);
      bsstore::AppendFrame(region, static_cast<std::uint8_t>(1 + rng.Below(4)),
                           payload);
    }
    bsstore::AppendFrame(region, bsstore::kCommitRecord, {});
  }
  if (rng.Chance(0.3)) {
    // Uncommitted tail: a legal state after a crash mid-append.
    bsstore::AppendFrame(region, 1, RandomBytes(rng, 24));
  }
  return region;
}

bsutil::ByteVec AddrManBase(bsutil::Rng& rng) {
  bsnet::AddrMan am(/*seed=*/1);
  if (rng.Chance(0.5)) am.EnableBucketing();
  const std::size_t count = rng.Below(24);
  for (std::size_t i = 0; i < count; ++i) {
    bsnet::Endpoint ep;
    ep.ip = static_cast<std::uint32_t>(rng.Next());
    ep.port = static_cast<std::uint16_t>(8000 + rng.Below(1000));
    am.Add(ep);
  }
  return am.Serialize();
}

bsutil::ByteVec Sha256Base(bsutil::Rng& rng) {
  // Half the lengths sit on a padding edge: a tail of 55 bytes still fits
  // the length field in its block, 56 spills into a second, 64 is whole.
  static constexpr std::size_t kEdges[] = {1, 8, 32, 55, 56, 63, 64, 80, 119, 120};
  const std::size_t len = rng.Chance(0.5)
                              ? kEdges[rng.Below(std::size(kEdges))] + 64 * rng.Below(4)
                              : 1 + rng.Below(1024);
  bsutil::ByteVec out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

bsutil::ByteVec BaseInputFor(const std::string& harness, bsutil::Rng& rng) {
  if (harness == "codec") return CodecBase(rng);
  if (harness == "tracker") return TrackerBase(rng);
  if (harness == "store") return StoreBase(rng);
  if (harness == "addrman") return AddrManBase(rng);
  if (harness == "sha256") return Sha256Base(rng);
  throw std::invalid_argument("unknown fuzz harness: " + harness);
}

}  // namespace bsfuzz
