// Tests for bsproto: per-type payload round-trips over all 26 message types,
// wire-codec semantics (checksum gate, unknown commands, partial frames),
// endpoint/netaddr encoding, and compact-block helpers.
#include <gtest/gtest.h>

#include <variant>

#include "attack/crafter.hpp"
#include "crypto/sha256.hpp"
#include "proto/codec.hpp"
#include "proto/compact.hpp"
#include "proto/constants.hpp"
#include "proto/messages.hpp"
#include "util/rng.hpp"

namespace {

using namespace bsproto;  // NOLINT: test file, full surface exercised
using bscrypto::Hash256;
using bsutil::ByteVec;

constexpr std::uint32_t kMagic = 0xfabfb5da;

Hash256 TestHash(int i) {
  Hash256 h;
  h.Data()[0] = static_cast<std::uint8_t>(i);
  h.Data()[1] = static_cast<std::uint8_t>(i >> 8);
  return h;
}

bschain::Transaction TestTx(bool witness) {
  bschain::Transaction tx;
  tx.version = 2;
  bschain::TxIn in;
  in.prevout.txid = TestHash(9);
  in.prevout.index = 1;
  in.script_sig = bsutil::ToBytes("scriptsig");
  in.sequence = 0xfffffffe;
  tx.inputs.push_back(in);
  bschain::TxOut out;
  out.value = 12345;
  out.script_pubkey = bsutil::ToBytes("pubkey");
  tx.outputs.push_back(out);
  if (witness) tx.witness.push_back(bsutil::ToBytes("wit"));
  tx.lock_time = 77;
  return tx;
}

bschain::Block TestBlock() {
  bschain::Block block;
  bschain::Transaction coinbase;
  bschain::TxIn in;
  in.prevout = bschain::OutPoint{};
  in.script_sig = bsutil::ToBytes("cb");
  coinbase.inputs.push_back(in);
  coinbase.outputs.push_back({50'0000'0000LL, bsutil::ToBytes("mine")});
  block.txs.push_back(coinbase);
  block.txs.push_back(TestTx(false));
  block.header.version = 2;
  block.header.prev = TestHash(3);
  block.header.merkle_root = block.ComputeMerkleRoot();
  block.header.time = 1'600'000'000;
  block.header.bits = 0x207fffff;
  block.header.nonce = 42;
  return block;
}

/// One representative message instance per type.
Message SampleMessage(MsgType type) {
  switch (type) {
    case MsgType::kVersion: {
      VersionMsg m;
      m.version = kProtocolVersion;
      m.timestamp = 1'600'000'123;
      m.addr_recv.endpoint = {0x0a000001, 8333};
      m.addr_from.endpoint = {0x0a000002, 8333};
      m.nonce = 0xfeedface;
      m.user_agent = "/test:0.1/";
      m.start_height = 812345;
      m.relay = false;
      return m;
    }
    case MsgType::kVerack: return VerackMsg{};
    case MsgType::kAddr: {
      AddrMsg m;
      for (int i = 0; i < 3; ++i) {
        TimedNetAddr rec;
        rec.time = 1'600'000'000 + i;
        rec.addr.services = kNodeNetwork;
        rec.addr.endpoint = {static_cast<std::uint32_t>(0x0a000010 + i),
                             static_cast<std::uint16_t>(8333 + i)};
        m.addresses.push_back(rec);
      }
      return m;
    }
    case MsgType::kInv: {
      InvMsg m;
      m.inventory.push_back({InvType::kTx, TestHash(1)});
      m.inventory.push_back({InvType::kBlock, TestHash(2)});
      return m;
    }
    case MsgType::kGetData: {
      GetDataMsg m;
      m.inventory.push_back({InvType::kWitnessBlock, TestHash(4)});
      return m;
    }
    case MsgType::kNotFound: {
      NotFoundMsg m;
      m.inventory.push_back({InvType::kTx, TestHash(5)});
      return m;
    }
    case MsgType::kGetBlocks: {
      GetBlocksMsg m;
      m.locator = {TestHash(6), TestHash(7)};
      m.stop = TestHash(8);
      return m;
    }
    case MsgType::kGetHeaders: {
      GetHeadersMsg m;
      m.locator = {TestHash(6)};
      return m;
    }
    case MsgType::kHeaders: {
      HeadersMsg m;
      bschain::BlockHeader h;
      h.prev = TestHash(10);
      h.merkle_root = TestHash(11);
      h.time = 1'600'000'555;
      h.bits = 0x207fffff;
      h.nonce = 7;
      m.headers = {h, h};
      return m;
    }
    case MsgType::kTx: return TxMsg{TestTx(true)};
    case MsgType::kBlock: return BlockMsg{TestBlock()};
    case MsgType::kPing: return PingMsg{0xabcdef12345};
    case MsgType::kPong: return PongMsg{0xabcdef12345};
    case MsgType::kGetAddr: return GetAddrMsg{};
    case MsgType::kMempool: return MempoolMsg{};
    case MsgType::kSendHeaders: return SendHeadersMsg{};
    case MsgType::kFeeFilter: return FeeFilterMsg{1000};
    case MsgType::kSendCmpct: return SendCmpctMsg{true, 1};
    case MsgType::kCmpctBlock: {
      CmpctBlockMsg m = BuildCompactBlock(TestBlock(), 0x1234);
      return m;
    }
    case MsgType::kGetBlockTxn: {
      GetBlockTxnMsg m;
      m.block_hash = TestHash(20);
      m.indexes = {0, 3, 4, 9};
      return m;
    }
    case MsgType::kBlockTxn: {
      BlockTxnMsg m;
      m.block_hash = TestHash(21);
      m.txs = {TestTx(false), TestTx(true)};
      return m;
    }
    case MsgType::kFilterLoad: {
      FilterLoadMsg m;
      m.filter = ByteVec(64, 0x5a);
      m.n_hash_funcs = 11;
      m.n_tweak = 99;
      m.n_flags = 1;
      return m;
    }
    case MsgType::kFilterAdd: {
      FilterAddMsg m;
      m.data = ByteVec(32, 0xcc);
      return m;
    }
    case MsgType::kFilterClear: return FilterClearMsg{};
    case MsgType::kMerkleBlock: {
      MerkleBlockMsg m;
      m.header = TestBlock().header;
      m.total_txs = 7;
      m.hashes = {TestHash(30), TestHash(31)};
      m.flags = {0xff, 0x01};
      return m;
    }
    case MsgType::kReject: {
      RejectMsg m;
      m.message = "tx";
      m.code = 0x10;
      m.reason = "bad-txns";
      m.data = ByteVec(32, 0x77);
      return m;
    }
    case MsgType::kTipProbe: {
      TipProbeMsg m;
      m.nonce = 0xfeed1234;
      m.tips.push_back({812345, TestHash(40)});
      m.tips.push_back({812346, TestHash(41)});
      return m;
    }
  }
  return VerackMsg{};
}

// ---------------------------------------------------------------------------
// Catalogue sanity

TEST(Constants, TwentySixMessageTypes) {
  EXPECT_EQ(AllMsgTypes().size(), kNumMsgTypes);
  // The paper's 26-type catalogue plus the partition-resilience TIPPROBE
  // extension appended after it.
  EXPECT_EQ(kNumMsgTypes, 27u);
}

TEST(Constants, CommandNamesRoundTrip) {
  for (MsgType type : AllMsgTypes()) {
    const auto back = MsgTypeFromCommand(CommandName(type));
    ASSERT_TRUE(back.has_value()) << CommandName(type);
    EXPECT_EQ(*back, type);
  }
}

TEST(Constants, UnknownCommandRejected) {
  EXPECT_FALSE(MsgTypeFromCommand("bogus").has_value());
  EXPECT_FALSE(MsgTypeFromCommand("").has_value());
}

TEST(Constants, VariantOrderMatchesEnum) {
  for (MsgType type : AllMsgTypes()) {
    EXPECT_EQ(MsgTypeOf(SampleMessage(type)), type);
  }
}

// ---------------------------------------------------------------------------
// Round-trips over every type

class MessageRoundTrip : public ::testing::TestWithParam<MsgType> {};

TEST_P(MessageRoundTrip, PayloadSerializesAndParsesBack) {
  const Message original = SampleMessage(GetParam());
  const ByteVec payload = SerializePayload(original);
  const Message parsed = DeserializePayload(GetParam(), payload);
  EXPECT_EQ(parsed, original);
}

TEST_P(MessageRoundTrip, FullFrameDecodes) {
  const Message original = SampleMessage(GetParam());
  const ByteVec frame = EncodeMessage(kMagic, original);
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kOk);
  EXPECT_EQ(result.consumed, frame.size());
  EXPECT_EQ(result.message, original);
  EXPECT_EQ(result.header.command, CommandName(GetParam()));
}

TEST_P(MessageRoundTrip, TrailingBytesRejected) {
  const Message original = SampleMessage(GetParam());
  ByteVec payload = SerializePayload(original);
  payload.push_back(0x00);
  // REJECT consumes trailing bytes into its data field by design; everything
  // else must reject the extra byte.
  if (GetParam() == MsgType::kReject) {
    EXPECT_NO_THROW((void)DeserializePayload(GetParam(), payload));
  } else {
    EXPECT_THROW((void)DeserializePayload(GetParam(), payload),
                 bsutil::DeserializeError);
  }
}

TEST_P(MessageRoundTrip, TruncatedPayloadRejected) {
  const Message original = SampleMessage(GetParam());
  ByteVec payload = SerializePayload(original);
  if (payload.empty()) return;  // empty-body messages cannot be truncated
  // VERSION's relay flag is optional on the wire (BIP-37) and REJECT's data
  // field swallows whatever remains, so one-byte truncation is legal there.
  if (GetParam() == MsgType::kVersion || GetParam() == MsgType::kReject) return;
  payload.pop_back();
  EXPECT_THROW((void)DeserializePayload(GetParam(), payload), bsutil::DeserializeError);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MessageRoundTrip,
                         ::testing::ValuesIn(AllMsgTypes()),
                         [](const ::testing::TestParamInfo<MsgType>& info) {
                           return std::string(CommandName(info.param));
                         });

// ---------------------------------------------------------------------------
// Codec pipeline semantics

TEST(Codec, ChecksumIsFirstFourBytesOfDoubleSha) {
  const ByteVec payload = bsutil::ToBytes("hello");
  const auto checksum = PayloadChecksum(payload);
  const auto digest = bscrypto::Sha256::HashD(payload);
  EXPECT_EQ(checksum[0], digest[0]);
  EXPECT_EQ(checksum[3], digest[3]);
}

TEST(Codec, EmptyPayloadChecksum) {
  // Well-known: sha256d("") starts with 5df6e0e2.
  const auto checksum = PayloadChecksum({});
  EXPECT_EQ(checksum[0], 0x5d);
  EXPECT_EQ(checksum[1], 0xf6);
  EXPECT_EQ(checksum[2], 0xe0);
  EXPECT_EQ(checksum[3], 0xe2);
}

TEST(Codec, BadChecksumDetectedBeforeParsing) {
  // Craft a frame whose payload would be MALFORMED if parsed — the checksum
  // failure must win, proving the gate runs first.
  ByteVec garbage = {0x01, 0x02, 0x03};
  std::array<std::uint8_t, 4> wrong = PayloadChecksum(garbage);
  wrong[0] ^= 0xff;
  const ByteVec frame = EncodeRaw(kMagic, "version", garbage, &wrong);
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kBadChecksum);
  EXPECT_EQ(result.consumed, frame.size());
}

TEST(Codec, UnknownCommandAfterValidChecksum) {
  const ByteVec frame = EncodeRaw(kMagic, "bogus", bsutil::ToBytes("x"));
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kUnknownCommand);
}

TEST(Codec, MalformedPayloadDetected) {
  // "ping" payload must be exactly 8 bytes.
  const ByteVec frame = EncodeRaw(kMagic, "ping", bsutil::ToBytes("abc"));
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kMalformed);
}

TEST(Codec, WrongMagicRejected) {
  const ByteVec frame = EncodeMessage(kMagic, PingMsg{1});
  const DecodeResult result = DecodeMessage(kMagic ^ 1, frame);
  EXPECT_EQ(result.status, DecodeStatus::kBadMagic);
  EXPECT_EQ(result.consumed, kHeaderSize);
}

TEST(Codec, OversizeLengthRejected) {
  MessageHeader header;
  header.magic = kMagic;
  header.command = "tx";
  header.length = kMaxProtocolMessageLength + 1;
  const ByteVec frame = header.Serialize();
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kOversize);
}

TEST(Codec, DeclaredLength2G31RejectedWithoutAllocation) {
  // Regression: a frame declaring length 2^31 (and every value above
  // kMaxFramePayload) must be refused at the header gate — before any
  // payload buffering — and must bump the oversize-reject counter. A
  // decoder that allocated first would turn one 24-byte header into a 2 GiB
  // allocation.
  const std::uint64_t before = CodecOversizeRejects();
  for (const std::uint32_t length :
       {static_cast<std::uint32_t>(1) << 31, std::uint32_t{0x7fffffff},
        std::uint32_t{0xffffffff},
        static_cast<std::uint32_t>(kMaxFramePayload) + 1}) {
    MessageHeader header;
    header.magic = kMagic;
    header.command = "tx";
    header.length = length;
    const ByteVec frame = header.Serialize();
    const DecodeResult result = DecodeMessage(kMagic, frame);
    EXPECT_EQ(result.status, DecodeStatus::kOversize) << "length=" << length;
    EXPECT_EQ(result.consumed, frame.size()) << "length=" << length;
  }
  EXPECT_EQ(CodecOversizeRejects(), before + 4);
}

TEST(Codec, MaxFramePayloadBoundMatchesProtocolLimit) {
  // kMaxFramePayload is the decode-side allocation bound; it must never
  // drift above the protocol's own message-size limit.
  EXPECT_EQ(kMaxFramePayload, kMaxProtocolMessageLength);
  MessageHeader header;
  header.magic = kMagic;
  header.command = "tx";
  header.length = static_cast<std::uint32_t>(kMaxFramePayload);
  const ByteVec frame = header.Serialize();
  // Exactly at the bound: not oversize (the payload simply isn't there yet).
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kNeedMoreData);
}

TEST(Codec, PartialHeaderNeedsMoreData) {
  const ByteVec frame = EncodeMessage(kMagic, PingMsg{1});
  const DecodeResult result =
      DecodeMessage(kMagic, bsutil::ByteSpan(frame.data(), kHeaderSize - 1));
  EXPECT_EQ(result.status, DecodeStatus::kNeedMoreData);
  EXPECT_EQ(result.consumed, 0u);
}

TEST(Codec, PartialPayloadNeedsMoreData) {
  const ByteVec frame = EncodeMessage(kMagic, PingMsg{1});
  const DecodeResult result =
      DecodeMessage(kMagic, bsutil::ByteSpan(frame.data(), frame.size() - 1));
  EXPECT_EQ(result.status, DecodeStatus::kNeedMoreData);
  EXPECT_EQ(result.consumed, 0u);
}

TEST(Codec, StreamOfTwoMessagesDecodesSequentially) {
  ByteVec stream = EncodeMessage(kMagic, PingMsg{1});
  const ByteVec second = EncodeMessage(kMagic, PongMsg{2});
  stream.insert(stream.end(), second.begin(), second.end());

  const DecodeResult first = DecodeMessage(kMagic, stream);
  ASSERT_EQ(first.status, DecodeStatus::kOk);
  const bsutil::ByteSpan rest(stream.data() + first.consumed,
                              stream.size() - first.consumed);
  const DecodeResult next = DecodeMessage(kMagic, rest);
  ASSERT_EQ(next.status, DecodeStatus::kOk);
  EXPECT_EQ(MsgTypeOf(next.message), MsgType::kPong);
}

TEST(Codec, CommandWithBytesAfterNulRejected) {
  ByteVec frame = EncodeMessage(kMagic, PingMsg{1});
  // Corrupt the command field: "ping\0X..." is invalid padding.
  frame[4 + 5] = 'X';
  const DecodeResult result = DecodeMessage(kMagic, frame);
  EXPECT_EQ(result.status, DecodeStatus::kMalformed);
}

TEST(Codec, HeaderRoundTrip) {
  MessageHeader header;
  header.magic = kMagic;
  header.command = "cmpctblock";
  header.length = 512;
  header.checksum = {1, 2, 3, 4};
  const ByteVec bytes = header.Serialize();
  ASSERT_EQ(bytes.size(), kHeaderSize);
  const MessageHeader parsed = MessageHeader::Deserialize(bytes);
  EXPECT_EQ(parsed.magic, header.magic);
  EXPECT_EQ(parsed.command, header.command);
  EXPECT_EQ(parsed.length, header.length);
  EXPECT_EQ(parsed.checksum, header.checksum);
}

TEST(Codec, HeaderDeserializeRejectsTruncationAndBadPadding) {
  ByteVec bytes = EncodeMessage(kMagic, PingMsg{1});
  EXPECT_THROW(MessageHeader::Deserialize(bsutil::ByteSpan(bytes.data(), kHeaderSize - 1)),
               bsutil::DeserializeError);
  bytes[4 + 5] = 'X';  // "ping\0X"
  EXPECT_THROW(MessageHeader::Deserialize(bytes), bsutil::DeserializeError);
}

TEST(Codec, CommandFieldLookupMatchesStringLookup) {
  for (MsgType type : AllMsgTypes()) {
    std::array<std::uint8_t, kCommandSize> field{};
    const std::string name = CommandName(type);
    std::copy(name.begin(), name.end(), field.begin());
    const auto got = MsgTypeFromCommandField(field.data());
    ASSERT_TRUE(got.has_value()) << name;
    EXPECT_EQ(*got, type);
    field[name.size()] = 'x';  // one byte longer: a different command
    EXPECT_FALSE(MsgTypeFromCommandField(field.data()).has_value()) << name;
  }
  const std::array<std::uint8_t, kCommandSize> empty{};
  EXPECT_FALSE(MsgTypeFromCommandField(empty.data()).has_value());
  EXPECT_FALSE(MsgTypeFromCommand(std::string("ping\0", 5)).has_value());
  EXPECT_FALSE(MsgTypeFromCommand("getblocktxnx").has_value());
  EXPECT_FALSE(MsgTypeFromCommand("getblocktxnxx").has_value());
}

TEST(Codec, PeekFrameReadsTheHeaderOnly) {
  std::array<std::uint8_t, 4> wrong = {1, 2, 3, 4};
  const ByteVec bogus = EncodeRaw(kMagic, "ping", ByteVec(8, 0), &wrong);
  FramePeek peek;
  ASSERT_TRUE(PeekFrame(kMagic, bogus, peek));  // no checksum verification
  EXPECT_EQ(peek.command, "ping");
  EXPECT_EQ(peek.msg_type, static_cast<int>(MsgType::kPing));
  EXPECT_EQ(peek.frame_size, bogus.size());

  const ByteVec unknown = EncodeRaw(kMagic, "bogus", ByteVec(3, 0));
  ASSERT_TRUE(PeekFrame(kMagic, unknown, peek));
  EXPECT_EQ(peek.command, "bogus");
  EXPECT_EQ(peek.msg_type, -1);
  EXPECT_EQ(peek.frame_size, kHeaderSize + 3);

  // The declared length counts even past the frame bound.
  MessageHeader oversize;
  oversize.magic = kMagic;
  oversize.command = "tx";
  oversize.length = 0xffffffff;
  ASSERT_TRUE(PeekFrame(kMagic, oversize.Serialize(), peek));
  EXPECT_EQ(peek.frame_size, kHeaderSize + 0xffffffffull);
}

TEST(Codec, PeekFrameRefusesShortForeignAndBadlyPaddedHeaders) {
  ByteVec frame = EncodeMessage(kMagic, PingMsg{1});
  FramePeek peek;
  EXPECT_FALSE(PeekFrame(kMagic, bsutil::ByteSpan(frame.data(), kHeaderSize - 1), peek));
  EXPECT_FALSE(PeekFrame(kMagic ^ 1, frame, peek));
  frame[4 + 5] = 'X';
  EXPECT_FALSE(PeekFrame(kMagic, frame, peek));
}

TEST(Codec, ReusedResultCarriesNoStaleHeaderFields) {
  // One result decodes every frame in place, as Node::OnData does: each
  // outcome rewrites the whole header, and `message` changes only on kOk.
  ByteVec stream = EncodeMessage(kMagic, PingMsg{42});
  ByteVec malformed = EncodeRaw(kMagic, "ping", {});
  malformed[4 + 5] = 'X';
  const std::array<std::uint8_t, 4> wrong = {9, 9, 9, 9};
  for (const ByteVec& frame :
       {malformed, EncodeRaw(kMagic, "veryodd", ByteVec(5, 1)),
        EncodeRaw(kMagic, "pong", ByteVec(8, 2), &wrong), EncodeMessage(kMagic, PongMsg{7})}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  StreamDecoder decoder(kMagic);
  decoder.Feed(stream);
  DecodeResult r;

  ASSERT_TRUE(decoder.Next(r));
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.header.command, "ping");
  EXPECT_EQ(std::get<PingMsg>(r.message).nonce, 42u);

  ASSERT_TRUE(decoder.Next(r));
  ASSERT_EQ(r.status, DecodeStatus::kMalformed);
  EXPECT_EQ(r.consumed, kHeaderSize);
  EXPECT_EQ(r.header.magic, 0u);
  EXPECT_EQ(r.header.command, "");
  EXPECT_EQ(r.header.length, 0u);
  EXPECT_EQ(r.header.checksum, (std::array<std::uint8_t, 4>{}));
  EXPECT_EQ(std::get<PingMsg>(r.message).nonce, 42u);  // untouched off kOk

  ASSERT_TRUE(decoder.Next(r));
  ASSERT_EQ(r.status, DecodeStatus::kUnknownCommand);
  EXPECT_EQ(r.header.magic, kMagic);
  EXPECT_EQ(r.header.command, "veryodd");
  EXPECT_EQ(r.header.length, 5u);

  ASSERT_TRUE(decoder.Next(r));
  ASSERT_EQ(r.status, DecodeStatus::kBadChecksum);
  EXPECT_EQ(r.header.command, "pong");
  EXPECT_EQ(r.header.checksum, wrong);

  ASSERT_TRUE(decoder.Next(r));
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(std::get<PongMsg>(r.message).nonce, 7u);
  EXPECT_FALSE(decoder.Next(r));
}

// ---------------------------------------------------------------------------
// NetAddr / Endpoint

TEST(NetAddr, EndpointToString) {
  const Endpoint ep{0xc0a80101, 8333};
  EXPECT_EQ(ep.ToString(), "192.168.1.1:8333");
}

TEST(NetAddr, ParseIp) {
  EXPECT_EQ(Endpoint::ParseIp("10.0.0.1"), 0x0a000001u);
  EXPECT_EQ(Endpoint::ParseIp("256.1.1.1"), 0u);
  EXPECT_EQ(Endpoint::ParseIp("garbage"), 0u);
}

TEST(NetAddr, WireFormatIsIpv4Mapped) {
  NetAddr addr;
  addr.services = kNodeNetwork;
  addr.endpoint = {0x01020304, 0x1f90};  // port 8080
  bsutil::Writer w;
  addr.Serialize(w);
  ASSERT_EQ(w.Size(), 26u);  // 8 services + 16 ip + 2 port
  const ByteVec& bytes = w.Data();
  EXPECT_EQ(bytes[8 + 10], 0xff);
  EXPECT_EQ(bytes[8 + 11], 0xff);
  EXPECT_EQ(bytes[8 + 12], 0x01);
  EXPECT_EQ(bytes[8 + 15], 0x04);
  // Port is big-endian on the wire.
  EXPECT_EQ(bytes[24], 0x1f);
  EXPECT_EQ(bytes[25], 0x90);

  bsutil::Reader r(w.Data());
  EXPECT_EQ(NetAddr::Deserialize(r), addr);
}

// ---------------------------------------------------------------------------
// Compact blocks

TEST(CompactBlocks, BuildPrefillsCoinbase) {
  const auto block = TestBlock();
  const CmpctBlockMsg msg = BuildCompactBlock(block, 99);
  ASSERT_EQ(msg.prefilled.size(), 1u);
  EXPECT_EQ(msg.prefilled[0].index, 0u);
  EXPECT_EQ(msg.short_ids.size(), block.txs.size() - 1);
  EXPECT_EQ(CheckCompactBlock(msg), CompactBlockError::kOk);
}

TEST(CompactBlocks, ShortIdDependsOnNonce) {
  const Hash256 txid = TestHash(42);
  EXPECT_NE(ShortTxId(txid, 1), ShortTxId(txid, 2));
  EXPECT_EQ(ShortTxId(txid, 1), ShortTxId(txid, 1));
  EXPECT_LT(ShortTxId(txid, 1), 1ULL << 48);
}

TEST(CompactBlocks, DuplicateShortIdsInvalid) {
  CmpctBlockMsg msg = BuildCompactBlock(TestBlock(), 7);
  msg.short_ids.push_back(0xaaaa);
  msg.short_ids.push_back(0xaaaa);
  EXPECT_EQ(CheckCompactBlock(msg), CompactBlockError::kDuplicateShortIds);
}

TEST(CompactBlocks, PrefilledIndexOutOfBoundsInvalid) {
  CmpctBlockMsg msg = BuildCompactBlock(TestBlock(), 7);
  msg.prefilled[0].index = 1000;
  EXPECT_EQ(CheckCompactBlock(msg), CompactBlockError::kPrefilledOutOfBounds);
}

TEST(CompactBlocks, EmptyCompactBlockInvalid) {
  CmpctBlockMsg msg;
  EXPECT_EQ(CheckCompactBlock(msg), CompactBlockError::kEmpty);
}

TEST(CompactBlocks, ReconstructFromMempool) {
  const auto block = TestBlock();
  const CmpctBlockMsg msg = BuildCompactBlock(block, 55);
  std::vector<std::uint64_t> missing;
  const auto rebuilt = ReconstructBlock(msg, {block.txs[1]}, &missing);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(rebuilt->Hash(), block.Hash());
  EXPECT_EQ(rebuilt->txs.size(), block.txs.size());
}

TEST(CompactBlocks, ReconstructReportsMissingIndexes) {
  const auto block = TestBlock();
  const CmpctBlockMsg msg = BuildCompactBlock(block, 55);
  std::vector<std::uint64_t> missing;
  const auto rebuilt = ReconstructBlock(msg, {}, &missing);
  EXPECT_FALSE(rebuilt.has_value());
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], 1u);  // the non-coinbase slot
}

TEST(CompactBlocks, DifferentialIndexEncodingRoundTrip) {
  GetBlockTxnMsg msg;
  msg.block_hash = TestHash(1);
  msg.indexes = {0, 1, 5, 6, 1000};
  const ByteVec payload = SerializePayload(Message{msg});
  const Message parsed = DeserializePayload(MsgType::kGetBlockTxn, payload);
  EXPECT_EQ(std::get<GetBlockTxnMsg>(parsed).indexes, msg.indexes);
}

// ---------------------------------------------------------------------------
// Fuzz-ish robustness: random bytes never crash the decoder

class DecoderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzz, RandomPayloadsEitherParseOrThrowCleanly) {
  bsutil::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = rng.Below(300);
    ByteVec payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next());
    for (MsgType type : AllMsgTypes()) {
      try {
        (void)DeserializePayload(type, payload);
      } catch (const bsutil::DeserializeError&) {
        // Expected for malformed data; anything else would abort the test.
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
