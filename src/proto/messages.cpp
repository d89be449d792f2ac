#include "proto/messages.hpp"

#include <limits>

namespace bsproto {

namespace {

using bsutil::ByteSpan;
using bsutil::ByteVec;
using bsutil::DeserializeError;
using bsutil::Reader;
using bsutil::Writer;

// Structural allocation guard: a CompactSize count can never describe more
// elements than physically fit in the remaining payload. This keeps parsing
// permissive enough that over-limit (punishable) collections still decode,
// while rejecting allocation bombs.
std::uint64_t ReadCount(Reader& r, std::size_t min_element_size) {
  const std::uint64_t n = r.ReadCompactSize();
  if (min_element_size > 0 && n > r.Remaining() / min_element_size) {
    throw DeserializeError("collection count exceeds payload capacity");
  }
  return n;
}

void SerializeInv(Writer& w, const std::vector<InvVect>& inv) {
  w.WriteCompactSize(inv.size());
  for (const auto& item : inv) {
    w.WriteU32(static_cast<std::uint32_t>(item.type));
    item.hash.Serialize(w);
  }
}

std::vector<InvVect> DeserializeInv(Reader& r) {
  const std::uint64_t n = ReadCount(r, 36);
  std::vector<InvVect> inv;
  inv.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    InvVect item;
    item.type = static_cast<InvType>(r.ReadU32());
    item.hash = bscrypto::Hash256::Deserialize(r);
    inv.push_back(item);
  }
  return inv;
}

void SerializeLocator(Writer& w, std::uint32_t version,
                      const std::vector<bscrypto::Hash256>& locator,
                      const bscrypto::Hash256& stop) {
  w.WriteU32(version);
  w.WriteCompactSize(locator.size());
  for (const auto& h : locator) h.Serialize(w);
  stop.Serialize(w);
}

void DeserializeLocator(Reader& r, std::uint32_t& version,
                        std::vector<bscrypto::Hash256>& locator, bscrypto::Hash256& stop) {
  version = r.ReadU32();
  const std::uint64_t n = ReadCount(r, 32);
  locator.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) locator.push_back(bscrypto::Hash256::Deserialize(r));
  stop = bscrypto::Hash256::Deserialize(r);
}

struct PayloadSerializer {
  Writer& w;

  void operator()(const VersionMsg& m) {
    w.WriteI32(m.version);
    w.WriteU64(m.services);
    w.WriteI64(m.timestamp);
    m.addr_recv.Serialize(w);
    m.addr_from.Serialize(w);
    w.WriteU64(m.nonce);
    w.WriteVarString(m.user_agent);
    w.WriteI32(m.start_height);
    w.WriteBool(m.relay);
  }
  void operator()(const VerackMsg&) {}
  void operator()(const AddrMsg& m) {
    w.WriteCompactSize(m.addresses.size());
    for (const auto& a : m.addresses) a.Serialize(w);
  }
  void operator()(const InvMsg& m) { SerializeInv(w, m.inventory); }
  void operator()(const GetDataMsg& m) { SerializeInv(w, m.inventory); }
  void operator()(const NotFoundMsg& m) { SerializeInv(w, m.inventory); }
  void operator()(const GetBlocksMsg& m) { SerializeLocator(w, m.version, m.locator, m.stop); }
  void operator()(const GetHeadersMsg& m) { SerializeLocator(w, m.version, m.locator, m.stop); }
  void operator()(const HeadersMsg& m) {
    w.WriteCompactSize(m.headers.size());
    for (const auto& h : m.headers) {
      h.Serialize(w);
      w.WriteCompactSize(0);  // tx count, always 0 in headers messages
    }
  }
  void operator()(const TxMsg& m) { m.tx.Serialize(w); }
  void operator()(const BlockMsg& m) { m.block.Serialize(w); }
  void operator()(const PingMsg& m) { w.WriteU64(m.nonce); }
  void operator()(const PongMsg& m) { w.WriteU64(m.nonce); }
  void operator()(const GetAddrMsg&) {}
  void operator()(const MempoolMsg&) {}
  void operator()(const SendHeadersMsg&) {}
  void operator()(const FeeFilterMsg& m) { w.WriteI64(m.feerate); }
  void operator()(const SendCmpctMsg& m) {
    w.WriteBool(m.announce);
    w.WriteU64(m.version);
  }
  void operator()(const CmpctBlockMsg& m) {
    m.header.Serialize(w);
    w.WriteU64(m.nonce);
    w.WriteCompactSize(m.short_ids.size());
    for (std::uint64_t id : m.short_ids) {
      for (int i = 0; i < 6; ++i) w.WriteU8(static_cast<std::uint8_t>(id >> (8 * i)));
    }
    w.WriteCompactSize(m.prefilled.size());
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& p : m.prefilled) {
      // BIP-152 differential index encoding.
      const std::uint64_t diff = first ? p.index : p.index - prev - 1;
      w.WriteCompactSize(diff);
      p.tx.Serialize(w);
      prev = p.index;
      first = false;
    }
  }
  void operator()(const GetBlockTxnMsg& m) {
    m.block_hash.Serialize(w);
    w.WriteCompactSize(m.indexes.size());
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t idx : m.indexes) {
      const std::uint64_t diff = first ? idx : idx - prev - 1;
      w.WriteCompactSize(diff);
      prev = idx;
      first = false;
    }
  }
  void operator()(const BlockTxnMsg& m) {
    m.block_hash.Serialize(w);
    w.WriteCompactSize(m.txs.size());
    for (const auto& tx : m.txs) tx.Serialize(w);
  }
  void operator()(const FilterLoadMsg& m) {
    w.WriteVarBytes(m.filter);
    w.WriteU32(m.n_hash_funcs);
    w.WriteU32(m.n_tweak);
    w.WriteU8(m.n_flags);
  }
  void operator()(const FilterAddMsg& m) { w.WriteVarBytes(m.data); }
  void operator()(const FilterClearMsg&) {}
  void operator()(const MerkleBlockMsg& m) {
    m.header.Serialize(w);
    w.WriteU32(m.total_txs);
    w.WriteCompactSize(m.hashes.size());
    for (const auto& h : m.hashes) h.Serialize(w);
    w.WriteVarBytes(m.flags);
  }
  void operator()(const RejectMsg& m) {
    w.WriteVarString(m.message);
    w.WriteU8(m.code);
    w.WriteVarString(m.reason);
    w.WriteBytes(m.data);
  }
  void operator()(const TipProbeMsg& m) {
    w.WriteU64(m.nonce);
    w.WriteCompactSize(m.tips.size());
    for (const auto& tip : m.tips) {
      w.WriteI32(tip.height);
      tip.hash.Serialize(w);
    }
  }
};

}  // namespace

MsgType MsgTypeOf(const Message& msg) {
  // Variant alternative order matches the MsgType enum order by construction.
  return static_cast<MsgType>(msg.index());
}

ByteVec SerializePayload(const Message& msg) {
  Writer w;
  std::visit(PayloadSerializer{w}, msg);
  return w.TakeData();
}

Message DeserializePayload(MsgType type, ByteSpan payload) {
  Reader r(payload);
  // Every case assigns `out`; an empty VERACK placeholder keeps a PING or
  // PONG decode free of the allocation a default VersionMsg would make.
  Message out = VerackMsg{};
  switch (type) {
    case MsgType::kVersion: {
      VersionMsg m;
      m.version = r.ReadI32();
      m.services = r.ReadU64();
      m.timestamp = r.ReadI64();
      m.addr_recv = NetAddr::Deserialize(r);
      m.addr_from = NetAddr::Deserialize(r);
      m.nonce = r.ReadU64();
      m.user_agent = r.ReadVarString();
      m.start_height = r.ReadI32();
      // The relay flag is optional on the wire (BIP-37).
      m.relay = r.AtEnd() ? true : r.ReadBool();
      out = std::move(m);
      break;
    }
    case MsgType::kVerack:
      out = VerackMsg{};
      break;
    case MsgType::kAddr: {
      AddrMsg m;
      const std::uint64_t n = ReadCount(r, 30);
      m.addresses.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m.addresses.push_back(TimedNetAddr::Deserialize(r));
      out = std::move(m);
      break;
    }
    case MsgType::kInv: {
      InvMsg m;
      m.inventory = DeserializeInv(r);
      out = std::move(m);
      break;
    }
    case MsgType::kGetData: {
      GetDataMsg m;
      m.inventory = DeserializeInv(r);
      out = std::move(m);
      break;
    }
    case MsgType::kNotFound: {
      NotFoundMsg m;
      m.inventory = DeserializeInv(r);
      out = std::move(m);
      break;
    }
    case MsgType::kGetBlocks: {
      GetBlocksMsg m;
      DeserializeLocator(r, m.version, m.locator, m.stop);
      out = std::move(m);
      break;
    }
    case MsgType::kGetHeaders: {
      GetHeadersMsg m;
      DeserializeLocator(r, m.version, m.locator, m.stop);
      out = std::move(m);
      break;
    }
    case MsgType::kHeaders: {
      HeadersMsg m;
      const std::uint64_t n = ReadCount(r, 81);
      m.headers.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        m.headers.push_back(bschain::BlockHeader::Deserialize(r));
        if (r.ReadCompactSize() != 0) {
          throw DeserializeError("headers entry carries a nonzero tx count");
        }
      }
      out = std::move(m);
      break;
    }
    case MsgType::kTx: {
      TxMsg m;
      m.tx = bschain::Transaction::Deserialize(r);
      out = std::move(m);
      break;
    }
    case MsgType::kBlock: {
      BlockMsg m;
      m.block = bschain::Block::Deserialize(r);
      out = std::move(m);
      break;
    }
    case MsgType::kPing: {
      PingMsg m;
      m.nonce = r.ReadU64();
      out = std::move(m);
      break;
    }
    case MsgType::kPong: {
      PongMsg m;
      m.nonce = r.ReadU64();
      out = std::move(m);
      break;
    }
    case MsgType::kGetAddr:
      out = GetAddrMsg{};
      break;
    case MsgType::kMempool:
      out = MempoolMsg{};
      break;
    case MsgType::kSendHeaders:
      out = SendHeadersMsg{};
      break;
    case MsgType::kFeeFilter: {
      FeeFilterMsg m;
      m.feerate = r.ReadI64();
      out = std::move(m);
      break;
    }
    case MsgType::kSendCmpct: {
      SendCmpctMsg m;
      m.announce = r.ReadBool();
      m.version = r.ReadU64();
      out = std::move(m);
      break;
    }
    case MsgType::kCmpctBlock: {
      CmpctBlockMsg m;
      m.header = bschain::BlockHeader::Deserialize(r);
      m.nonce = r.ReadU64();
      const std::uint64_t n_ids = ReadCount(r, 6);
      m.short_ids.reserve(n_ids);
      for (std::uint64_t i = 0; i < n_ids; ++i) {
        std::uint64_t id = 0;
        for (int b = 0; b < 6; ++b) id |= static_cast<std::uint64_t>(r.ReadU8()) << (8 * b);
        m.short_ids.push_back(id);
      }
      const std::uint64_t n_prefilled = ReadCount(r, 1);
      std::uint64_t prev = 0;
      for (std::uint64_t i = 0; i < n_prefilled; ++i) {
        PrefilledTx p;
        const std::uint64_t diff = r.ReadCompactSize();
        p.index = (i == 0) ? diff : prev + 1 + diff;
        if (p.index > 1'000'000) throw DeserializeError("prefilled index overflow");
        p.tx = bschain::Transaction::Deserialize(r);
        prev = p.index;
        m.prefilled.push_back(std::move(p));
      }
      out = std::move(m);
      break;
    }
    case MsgType::kGetBlockTxn: {
      GetBlockTxnMsg m;
      m.block_hash = bscrypto::Hash256::Deserialize(r);
      const std::uint64_t n = ReadCount(r, 1);
      std::uint64_t prev = 0;
      m.indexes.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t diff = r.ReadCompactSize();
        const std::uint64_t idx = (i == 0) ? diff : prev + 1 + diff;
        if (idx < prev) throw DeserializeError("getblocktxn index overflow");
        m.indexes.push_back(idx);
        prev = idx;
      }
      out = std::move(m);
      break;
    }
    case MsgType::kBlockTxn: {
      BlockTxnMsg m;
      m.block_hash = bscrypto::Hash256::Deserialize(r);
      const std::uint64_t n = ReadCount(r, 10);
      m.txs.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m.txs.push_back(bschain::Transaction::Deserialize(r));
      out = std::move(m);
      break;
    }
    case MsgType::kFilterLoad: {
      FilterLoadMsg m;
      // Permissive bound: the punishable limit is 36000, but the payload must
      // parse for the node to punish it.
      m.filter = r.ReadVarBytes(kMaxFramePayload);
      m.n_hash_funcs = r.ReadU32();
      m.n_tweak = r.ReadU32();
      m.n_flags = r.ReadU8();
      out = std::move(m);
      break;
    }
    case MsgType::kFilterAdd: {
      FilterAddMsg m;
      m.data = r.ReadVarBytes(kMaxFramePayload);
      out = std::move(m);
      break;
    }
    case MsgType::kFilterClear:
      out = FilterClearMsg{};
      break;
    case MsgType::kMerkleBlock: {
      MerkleBlockMsg m;
      m.header = bschain::BlockHeader::Deserialize(r);
      m.total_txs = r.ReadU32();
      const std::uint64_t n = ReadCount(r, 32);
      m.hashes.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m.hashes.push_back(bscrypto::Hash256::Deserialize(r));
      m.flags = r.ReadVarBytes(kMaxFramePayload);
      out = std::move(m);
      break;
    }
    case MsgType::kReject: {
      RejectMsg m;
      m.message = r.ReadVarString();
      m.code = r.ReadU8();
      m.reason = r.ReadVarString();
      m.data = r.ReadBytes(r.Remaining());
      out = std::move(m);
      break;
    }
    case MsgType::kTipProbe: {
      TipProbeMsg m;
      m.nonce = r.ReadU64();
      const std::uint64_t n = ReadCount(r, 36);
      m.tips.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        TipEntry tip;
        tip.height = r.ReadI32();
        tip.hash = bscrypto::Hash256::Deserialize(r);
        m.tips.push_back(tip);
      }
      out = std::move(m);
      break;
    }
  }
  if (!r.AtEnd()) throw DeserializeError("trailing bytes after message payload");
  return out;
}

}  // namespace bsproto
