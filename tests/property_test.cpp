// Property-style tests: randomized sweeps over invariants that must hold for
// any input, seeded per-case for reproducibility.
//
//  * Misbehavior accounting: the score equals the sum of applied rule
//    increments, and banning happens exactly at the threshold crossing.
//  * Wire codec: any chunking of a frame stream decodes to the same message
//    sequence (stream resynchronization), and any payload corruption is
//    caught by the checksum before parsing — the invariant behind the
//    bogus-message vector.
//  * Chainstate: block acceptance is order-independent (with orphan retry).
//  * Bloom filters: never a false negative, for any geometry.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "attack/crafter.hpp"
#include "chain/chainstate.hpp"
#include "core/misbehavior.hpp"
#include "proto/bloom.hpp"
#include "proto/codec.hpp"
#include "proto/compact.hpp"
#include "store/format.hpp"
#include "util/rng.hpp"

namespace {

using namespace bsnet;  // NOLINT
using bsutil::ByteVec;

// ---------------------------------------------------------------------------
// Tracker invariants

class TrackerInvariants
    : public ::testing::TestWithParam<std::tuple<CoreVersion, int>> {};

TEST_P(TrackerInvariants, ScoreEqualsSumOfAppliedIncrementsAndBanIsExactlyAtThreshold) {
  const auto [version, seed] = GetParam();
  bsutil::Rng rng(static_cast<std::uint64_t>(seed));
  MisbehaviorTracker tracker(version, BanPolicy::kBanScore, 100);

  const auto& all = AllMisbehaviors();
  for (int peer = 1; peer <= 20; ++peer) {
    const bool inbound = rng.Chance(0.5);
    int expected_score = 0;
    bool banned = false;
    for (int step = 0; step < 50 && !banned; ++step) {
      const Misbehavior what = all[rng.Below(all.size())];
      const MisbehaviorOutcome outcome =
          tracker.Misbehaving(static_cast<std::uint64_t>(peer), inbound, what);

      // Recompute what should have happened from the rule table.
      const auto rule = GetRule(version, what);
      const bool applies =
          rule.has_value() &&
          (rule->scope == PeerScope::kAny ||
           (rule->scope == PeerScope::kInbound && inbound) ||
           (rule->scope == PeerScope::kOutbound && !inbound));
      ASSERT_EQ(outcome.rule_applied, applies);
      if (applies) {
        expected_score += rule->score;
        ASSERT_EQ(outcome.score_delta, rule->score);
      }
      ASSERT_EQ(tracker.Score(static_cast<std::uint64_t>(peer)), expected_score);
      ASSERT_EQ(outcome.should_ban, expected_score >= 100);
      banned = outcome.should_ban;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, TrackerInvariants,
    ::testing::Combine(::testing::Values(CoreVersion::kV0_20, CoreVersion::kV0_21,
                                         CoreVersion::kV0_22),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(TrackerInvariants, NonBanningPoliciesNeverRequestBans) {
  for (BanPolicy policy : {BanPolicy::kThresholdInfinity, BanPolicy::kDisabled}) {
    bsutil::Rng rng(77);
    MisbehaviorTracker tracker(CoreVersion::kV0_20, policy, 100);
    const auto& all = AllMisbehaviors();
    for (int step = 0; step < 500; ++step) {
      const auto outcome = tracker.Misbehaving(1, true, all[rng.Below(all.size())]);
      ASSERT_FALSE(outcome.should_ban) << ToString(policy);
    }
  }
}

// ---------------------------------------------------------------------------
// Codec stream properties

class CodecStreamProperty : public ::testing::TestWithParam<int> {};

TEST_P(CodecStreamProperty, AnyChunkingDecodesTheSameMessageSequence) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()));

  // A stream of assorted valid frames.
  std::vector<bsproto::MsgType> expected;
  ByteVec stream;
  for (int i = 0; i < 30; ++i) {
    bsproto::Message msg;
    switch (rng.Below(4)) {
      case 0: msg = bsproto::PingMsg{rng.Next()}; break;
      case 1: msg = bsproto::PongMsg{rng.Next()}; break;
      case 2: msg = bsproto::SendHeadersMsg{}; break;
      default: msg = bsproto::FeeFilterMsg{static_cast<std::int64_t>(rng.Below(10000))};
    }
    expected.push_back(bsproto::MsgTypeOf(msg));
    const ByteVec frame = bsproto::EncodeMessage(kMagic, msg);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  // Feed the stream in random-sized chunks through a plain reassembly buffer
  // over DecodeMessage, the contiguous reference StreamDecoder must match.
  std::vector<bsproto::MsgType> decoded;
  ByteVec buffer;
  std::size_t fed = 0;
  while (fed < stream.size() || !buffer.empty()) {
    if (fed < stream.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          1 + rng.Below(40), stream.size() - fed);
      buffer.insert(buffer.end(), stream.begin() + static_cast<std::ptrdiff_t>(fed),
                    stream.begin() + static_cast<std::ptrdiff_t>(fed + chunk));
      fed += chunk;
    }
    while (true) {
      const auto result = bsproto::DecodeMessage(kMagic, buffer);
      if (result.consumed == 0) break;
      ASSERT_EQ(result.status, bsproto::DecodeStatus::kOk);
      decoded.push_back(bsproto::MsgTypeOf(result.message));
      buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(result.consumed));
    }
    if (fed >= stream.size() && bsproto::DecodeMessage(kMagic, buffer).consumed == 0) {
      break;
    }
  }
  EXPECT_EQ(decoded, expected);
  EXPECT_TRUE(buffer.empty());
}

TEST_P(CodecStreamProperty, AnySingleByteCorruptionNeverYieldsAWrongMessage) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  const bsproto::Message original = bsproto::PingMsg{0x1122334455667788ULL};
  const ByteVec frame = bsproto::EncodeMessage(kMagic, original);

  for (int round = 0; round < 200; ++round) {
    ByteVec corrupted = frame;
    const std::size_t pos = rng.Below(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
    const auto result = bsproto::DecodeMessage(kMagic, corrupted);
    // Either the corruption is detected (magic/checksum/command/length), or
    // — never — a different message is silently accepted. Corrupting the
    // length field may leave the frame incomplete (kNeedMoreData).
    if (result.status == bsproto::DecodeStatus::kOk) {
      ADD_FAILURE() << "corruption at byte " << pos << " went unnoticed";
    }
  }
}

TEST_P(CodecStreamProperty, PayloadCorruptionIsAlwaysAChecksumDrop) {
  // The paper's bogus-message vector in property form: ANY payload byte
  // change is caught by the checksum gate, before parsing, with no
  // misbehavior attributable.
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  bsattack::Crafter crafter(bschain::ChainParams{});
  const ByteVec frame =
      bsproto::EncodeMessage(kMagic, crafter.ValidBlock(bscrypto::Hash256{}));

  for (int round = 0; round < 50; ++round) {
    ByteVec corrupted = frame;
    const std::size_t pos =
        bsproto::kHeaderSize + rng.Below(corrupted.size() - bsproto::kHeaderSize);
    corrupted[pos] ^= 0x01;
    const auto result = bsproto::DecodeMessage(kMagic, corrupted);
    ASSERT_EQ(result.status, bsproto::DecodeStatus::kBadChecksum);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecStreamProperty, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Codec robustness: truncation and bit-flips across the full message catalogue

/// One representative (non-trivial where possible) message of every one of
/// the 26 wire types, in variant order.
std::vector<bsproto::Message> AllTypeExemplars() {
  const bschain::ChainParams params;
  bsattack::Crafter crafter(params);
  const bschain::Block genesis = params.GenesisBlock();
  const bscrypto::Hash256 tip = genesis.Hash();
  const bschain::Transaction tx = crafter.ValidTx().tx;

  bsproto::VersionMsg version;
  version.timestamp = 1'600'000'000;
  version.nonce = 7;
  bsproto::AddrMsg addr;
  addr.addresses.push_back({1'600'000'000, {bsproto::kNodeNetwork, {0x0a000001, 8333}}});
  bsproto::InvMsg inv;
  inv.inventory.push_back({bsproto::InvType::kTx, tx.Txid()});
  bsproto::GetDataMsg getdata;
  getdata.inventory.push_back({bsproto::InvType::kBlock, tip});
  bsproto::NotFoundMsg notfound;
  notfound.inventory.push_back({bsproto::InvType::kTx, tx.Txid()});
  bsproto::GetBlocksMsg getblocks;
  getblocks.locator = {tip};
  bsproto::GetHeadersMsg getheaders;
  getheaders.locator = {tip};
  bsproto::HeadersMsg headers;
  headers.headers = {genesis.header};
  bsproto::CmpctBlockMsg cmpct = bsproto::BuildCompactBlock(genesis, 99);
  bsproto::GetBlockTxnMsg getblocktxn;
  getblocktxn.block_hash = tip;
  getblocktxn.indexes = {0};
  bsproto::BlockTxnMsg blocktxn;
  blocktxn.block_hash = tip;
  blocktxn.txs = {tx};
  bsproto::FilterLoadMsg filterload;
  filterload.filter = {0xff, 0x00, 0xaa};
  filterload.n_hash_funcs = 3;
  bsproto::MerkleBlockMsg merkle;
  merkle.header = genesis.header;
  merkle.total_txs = 1;
  merkle.hashes = {tx.Txid()};
  merkle.flags = {0x01};
  bsproto::RejectMsg reject;
  reject.message = "tx";
  reject.reason = "test";
  bsproto::TipProbeMsg tipprobe;
  tipprobe.nonce = 0x7e57;
  tipprobe.tips = {{1, tip}, {2, tx.Txid()}};

  return {
      version,
      bsproto::VerackMsg{},
      addr,
      inv,
      getdata,
      notfound,
      getblocks,
      getheaders,
      headers,
      crafter.ValidTx(),
      bsproto::BlockMsg{genesis},
      bsproto::PingMsg{0x1122334455667788ULL},
      bsproto::PongMsg{0x8877665544332211ULL},
      bsproto::GetAddrMsg{},
      bsproto::MempoolMsg{},
      bsproto::SendHeadersMsg{},
      bsproto::FeeFilterMsg{1000},
      bsproto::SendCmpctMsg{true, 1},
      cmpct,
      getblocktxn,
      blocktxn,
      filterload,
      bsproto::FilterAddMsg{{0xde, 0xad}},
      bsproto::FilterClearMsg{},
      merkle,
      reject,
      tipprobe,
  };
}

TEST(CodecRobustness, ExemplarsCoverAllMessageTypes) {
  const auto exemplars = AllTypeExemplars();
  ASSERT_EQ(exemplars.size(), bsproto::kNumMsgTypes);
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(bsproto::MsgTypeOf(exemplars[i])), i);
  }
}

TEST(CodecRobustness, EveryTruncationOfEveryTypeIsHandledWithoutThrowing) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  for (const auto& msg : AllTypeExemplars()) {
    const ByteVec frame = bsproto::EncodeMessage(kMagic, msg);
    // Every prefix for small frames; a stride keeps block-sized frames cheap.
    const std::size_t step = frame.size() > 4096 ? 37 : 1;
    for (std::size_t len = 0; len < frame.size(); len += step) {
      const bsutil::ByteSpan prefix(frame.data(), len);
      bsproto::DecodeResult result;
      ASSERT_NO_THROW(result = bsproto::DecodeMessage(kMagic, prefix))
          << bsproto::CommandName(bsproto::MsgTypeOf(msg)) << " len=" << len;
      // A truncated frame is incomplete — it must never decode to a message
      // and never claim to consume bytes that are not there.
      ASSERT_EQ(result.status, bsproto::DecodeStatus::kNeedMoreData);
      ASSERT_EQ(result.consumed, 0u);
    }
  }
}

class CodecBitFlip : public ::testing::TestWithParam<int> {};

TEST_P(CodecBitFlip, SingleBitFlipsNeverDecodeAndNeverThrowForAnyType) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (const auto& msg : AllTypeExemplars()) {
    const ByteVec frame = bsproto::EncodeMessage(kMagic, msg);
    for (int round = 0; round < 40; ++round) {
      ByteVec mutated = frame;
      const std::size_t pos = rng.Below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.Below(8));
      bsproto::DecodeResult result;
      ASSERT_NO_THROW(result = bsproto::DecodeMessage(kMagic, mutated))
          << bsproto::CommandName(bsproto::MsgTypeOf(msg)) << " byte=" << pos;
      // Magic, command, length and checksum cover every byte of the frame:
      // no single-bit flip may yield a successfully decoded message.
      ASSERT_NE(result.status, bsproto::DecodeStatus::kOk)
          << bsproto::CommandName(bsproto::MsgTypeOf(msg)) << " byte=" << pos;
    }
  }
}

TEST_P(CodecBitFlip, PayloadFlipsAreChecksumDropsWhichBypassMisbehavior) {
  // Table I has no rule for a bad-checksum frame (0.20.0): the node drops it
  // before the tracker sees it. Verify the decode side for every type with a
  // non-empty payload, and the tracker side through a real node below.
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (const auto& msg : AllTypeExemplars()) {
    const ByteVec frame = bsproto::EncodeMessage(kMagic, msg);
    if (frame.size() <= bsproto::kHeaderSize) continue;  // empty payload
    for (int round = 0; round < 20; ++round) {
      ByteVec mutated = frame;
      const std::size_t pos =
          bsproto::kHeaderSize + rng.Below(mutated.size() - bsproto::kHeaderSize);
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.Below(8));
      const auto result = bsproto::DecodeMessage(kMagic, mutated);
      ASSERT_EQ(result.status, bsproto::DecodeStatus::kBadChecksum)
          << bsproto::CommandName(bsproto::MsgTypeOf(msg)) << " byte=" << pos;
      ASSERT_EQ(result.consumed, mutated.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecBitFlip, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// StreamDecoder: incremental decode over partial buffers

/// One frame of every wire type, concatenated in variant order.
ByteVec FullCatalogueStream(std::uint32_t magic) {
  ByteVec stream;
  for (const auto& msg : AllTypeExemplars()) {
    const ByteVec frame = bsproto::EncodeMessage(magic, msg);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  return stream;
}

TEST(StreamDecoderProperty, EverySplitPointOfTheFullCatalogueRoundTrips) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  const auto exemplars = AllTypeExemplars();
  const ByteVec stream = FullCatalogueStream(kMagic);

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    bsproto::StreamDecoder decoder(kMagic);
    std::vector<bsproto::Message> got;
    const auto drain = [&] {
      bsproto::DecodeResult r;
      while (decoder.Next(r)) {
        ASSERT_EQ(r.status, bsproto::DecodeStatus::kOk) << "split=" << split;
        got.push_back(r.message);
      }
    };
    decoder.Feed(bsutil::ByteSpan(stream.data(), split));
    drain();
    decoder.Feed(bsutil::ByteSpan(stream.data() + split, stream.size() - split));
    drain();

    ASSERT_EQ(got.size(), exemplars.size()) << "split=" << split;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i] == exemplars[i]) << "split=" << split << " i=" << i;
    }
    ASSERT_EQ(decoder.FramesDecoded(), exemplars.size());
    ASSERT_EQ(decoder.BufferedBytes(), 0u);
    // An empty buffer needs a full header before anything can complete.
    ASSERT_EQ(decoder.BytesNeeded(), bsproto::kHeaderSize);
  }
}

TEST(StreamDecoderProperty, ByteAtATimeFeedMatchesContiguousDecodeOnMessyStreams) {
  // Interleave valid frames with the adversarial ones the paper's bogus-
  // message vector uses: wrong checksum, unknown command, foreign magic. The
  // incremental decoder must emit exactly the contiguous loop's outcome
  // sequence regardless of chunking.
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  const std::array<std::uint8_t, 4> bad_ck = {0xde, 0xad, 0xbe, 0xef};
  ByteVec stream;
  const auto append = [&stream](const ByteVec& frame) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  append(bsproto::EncodeMessage(kMagic, bsproto::PingMsg{1}));
  append(bsproto::EncodeRaw(kMagic, "ping", {}, &bad_ck));
  append(bsproto::EncodeMessage(kMagic, bsproto::VerackMsg{}));
  append(bsproto::EncodeRaw(kMagic, "nonsense", {}, nullptr));
  append(bsproto::EncodeRaw(kMagic ^ 0x10000u, "ping", {}, nullptr));
  append(bsproto::EncodeMessage(kMagic, bsproto::PongMsg{2}));

  std::vector<std::pair<bsproto::DecodeStatus, std::size_t>> reference;
  bsutil::ByteSpan rest(stream);
  while (!rest.empty()) {
    const auto r = bsproto::DecodeMessage(kMagic, rest);
    if (r.status == bsproto::DecodeStatus::kNeedMoreData) break;
    reference.emplace_back(r.status, r.consumed);
    rest = rest.subspan(r.consumed);
  }
  ASSERT_GE(reference.size(), 6u);

  bsproto::StreamDecoder decoder(kMagic);
  std::vector<std::pair<bsproto::DecodeStatus, std::size_t>> incremental;
  for (std::size_t i = 0; i <= stream.size(); ++i) {
    if (i < stream.size()) decoder.Feed(bsutil::ByteSpan(stream.data() + i, 1));
    bsproto::DecodeResult r;
    while (decoder.Next(r)) incremental.emplace_back(r.status, r.consumed);
  }
  ASSERT_EQ(incremental, reference);
}

TEST(StreamDecoderProperty, BytesNeededIsExactAtEveryPrefixOfEveryType) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  for (const auto& msg : AllTypeExemplars()) {
    const ByteVec frame = bsproto::EncodeMessage(kMagic, msg);
    const std::size_t step = frame.size() > 4096 ? 37 : 1;
    for (std::size_t len = 0; len < frame.size(); len += step) {
      bsproto::StreamDecoder decoder(kMagic);
      decoder.Feed(bsutil::ByteSpan(frame.data(), len));
      const std::size_t need = decoder.BytesNeeded();
      ASSERT_EQ(need,
                len < bsproto::kHeaderSize ? bsproto::kHeaderSize - len
                                           : frame.size() - len)
          << bsproto::CommandName(bsproto::MsgTypeOf(msg)) << " len=" << len;
      bsproto::DecodeResult r;
      ASSERT_FALSE(decoder.Next(r));
      // Feeding exactly the advertised bytes completes exactly the frame —
      // for a partial header it first re-advertises the payload remainder.
      decoder.Feed(bsutil::ByteSpan(frame.data() + len, need));
      if (decoder.BytesNeeded() > 0) {
        decoder.Feed(bsutil::ByteSpan(frame.data() + len + need,
                                      decoder.BytesNeeded()));
      }
      ASSERT_TRUE(decoder.Next(r));
      ASSERT_EQ(r.status, bsproto::DecodeStatus::kOk);
      ASSERT_EQ(r.consumed, frame.size());
    }
  }
}

TEST(StreamDecoderProperty, BoundedBufferShedsOldestAndKeepsDecodingPromptDrains) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  // Undrained garbage overflows: the cap holds and the shed bytes are counted.
  bsproto::StreamDecoder capped(kMagic, 64);
  bsutil::Rng rng(42);
  ByteVec junk(1000);
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.Next());
  capped.Feed(junk);
  EXPECT_LE(capped.BufferedBytes(), 64u);
  EXPECT_EQ(capped.OverflowBytes(), junk.size() - capped.BufferedBytes());

  // A promptly drained decoder never sheds, even under the same tiny-ish cap,
  // as long as the cap covers one whole frame.
  const ByteVec ping = bsproto::EncodeMessage(kMagic, bsproto::PingMsg{7});
  bsproto::StreamDecoder drained(kMagic, ping.size());
  for (int i = 0; i < 100; ++i) {
    drained.Feed(ping);
    bsproto::DecodeResult r;
    ASSERT_TRUE(drained.Next(r));
    ASSERT_EQ(r.status, bsproto::DecodeStatus::kOk);
    ASSERT_FALSE(drained.Next(r));
  }
  EXPECT_EQ(drained.OverflowBytes(), 0u);
  EXPECT_EQ(drained.FramesDecoded(), 100u);
}

TEST(StreamDecoderProperty, ShedInsideAPartialHeaderOrPayloadMatchesAFreshDecoder) {
  // The stream opens with a 624-byte frame. `held` bytes of it wait in the
  // buffer (a partial header, or a whole header and part of the payload);
  // then one Feed() overruns the cap by `cut` bytes, so the drop-oldest shed
  // ends inside what was held. The survivors must decode exactly as a fresh
  // decoder fed only them decodes, garbage resync included.
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  constexpr std::size_t kCap = 512;
  ByteVec stream = bsproto::EncodeRaw(kMagic, "filler", ByteVec(600, 0x5a));
  for (std::uint64_t nonce = 1; nonce <= 8; ++nonce) {
    const ByteVec ping = bsproto::EncodeMessage(kMagic, bsproto::PingMsg{nonce});
    stream.insert(stream.end(), ping.begin(), ping.end());
  }

  for (const std::size_t held : {std::size_t{10}, std::size_t{300}}) {
    for (std::size_t cut = 1; cut < held; ++cut) {
      bsproto::StreamDecoder capped(kMagic, kCap);
      capped.Feed(bsutil::ByteSpan(stream.data(), held));
      bsproto::DecodeResult r;
      ASSERT_FALSE(capped.Next(r));
      const std::size_t end = kCap + cut;
      capped.Feed(bsutil::ByteSpan(stream.data() + held, end - held));
      ASSERT_EQ(capped.OverflowBytes(), cut) << "held=" << held;

      bsproto::StreamDecoder fresh(kMagic);
      fresh.Feed(bsutil::ByteSpan(stream.data() + cut, end - cut));
      for (;;) {
        ASSERT_EQ(capped.StreamPosition(), fresh.StreamPosition() + cut);
        ASSERT_EQ(capped.BytesNeeded(), fresh.BytesNeeded())
            << "held=" << held << " cut=" << cut;
        bsproto::DecodeResult a;
        bsproto::DecodeResult b;
        const bool got = capped.Next(a);
        ASSERT_EQ(got, fresh.Next(b)) << "held=" << held << " cut=" << cut;
        if (!got) break;
        ASSERT_EQ(a.status, b.status) << "held=" << held << " cut=" << cut;
        ASSERT_EQ(a.consumed, b.consumed) << "held=" << held << " cut=" << cut;
        ASSERT_TRUE(a.message == b.message);
      }
      ASSERT_EQ(capped.FramesDecoded(), fresh.FramesDecoded());
    }
  }
}

// ---------------------------------------------------------------------------
// Chainstate order-independence

class ChainOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChainOrderProperty, AcceptanceOrderDoesNotChangeTheFinalChain) {
  const bschain::ChainParams params;
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009);

  // Build a random block tree on a reference chainstate.
  bschain::ChainState reference(params);
  std::vector<bschain::Block> blocks;
  std::vector<bscrypto::Hash256> frontier = {reference.TipHash()};
  for (int i = 0; i < 12; ++i) {
    const bscrypto::Hash256 parent = frontier[rng.Below(frontier.size())];
    auto block = bschain::MineBlock(
        bschain::BuildBlockTemplate(parent, 1'600'001'000 + i, {}, params,
                                    static_cast<std::uint64_t>(i) + 5000),
        params);
    ASSERT_TRUE(block.has_value());
    ASSERT_EQ(reference.AcceptBlock(*block), bschain::BlockResult::kOk);
    blocks.push_back(*block);
    frontier.push_back(block->Hash());
  }

  // Accept in a random order with orphan retry (prev-missing blocks are
  // retried after the rest, as a node's orphan handling effectively does).
  bschain::ChainState shuffled(params);
  std::deque<bschain::Block> queue;
  {
    std::vector<bschain::Block> shuffled_blocks = blocks;
    for (std::size_t i = shuffled_blocks.size(); i > 1; --i) {
      std::swap(shuffled_blocks[i - 1], shuffled_blocks[rng.Below(i)]);
    }
    queue.assign(shuffled_blocks.begin(), shuffled_blocks.end());
  }
  int stall_guard = 0;
  while (!queue.empty() && stall_guard < 10'000) {
    const bschain::Block block = queue.front();
    queue.pop_front();
    const auto result = shuffled.AcceptBlock(block);
    if (result == bschain::BlockResult::kPrevMissing) {
      queue.push_back(block);  // retry later
      ++stall_guard;
    } else {
      ASSERT_TRUE(result == bschain::BlockResult::kOk ||
                  result == bschain::BlockResult::kDuplicate)
          << ToString(result);
    }
  }
  ASSERT_TRUE(queue.empty());

  EXPECT_EQ(shuffled.TipHeight(), reference.TipHeight());
  EXPECT_EQ(shuffled.IndexSize(), reference.IndexSize());
  for (const auto& block : blocks) {
    EXPECT_TRUE(shuffled.HaveBlock(block.Hash()));
    const auto a = shuffled.GetEntry(block.Hash());
    const auto b = reference.GetEntry(block.Hash());
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->height, b->height);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainOrderProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Bloom filter: never a false negative

struct BloomGeometry {
  std::size_t elements;
  double fp_rate;
  std::uint32_t tweak;
};

class BloomNoFalseNegatives : public ::testing::TestWithParam<BloomGeometry> {};

TEST_P(BloomNoFalseNegatives, EveryInsertedItemMatches) {
  const auto [elements, fp_rate, tweak] = GetParam();
  bsproto::BloomFilter filter(elements, fp_rate, tweak);
  bsutil::Rng rng(tweak + 99);
  std::vector<ByteVec> inserted;
  for (std::size_t i = 0; i < elements; ++i) {
    ByteVec item(1 + rng.Below(64));
    for (auto& b : item) b = static_cast<std::uint8_t>(rng.Next());
    filter.Insert(item);
    inserted.push_back(std::move(item));
  }
  for (const auto& item : inserted) {
    ASSERT_TRUE(filter.Contains(item));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomNoFalseNegatives,
    ::testing::Values(BloomGeometry{1, 0.5, 0}, BloomGeometry{10, 0.1, 1},
                      BloomGeometry{100, 0.01, 2}, BloomGeometry{1000, 0.001, 3},
                      BloomGeometry{5000, 0.0001, 0xdeadbeef}));

// ---------------------------------------------------------------------------
// Serialization: double round-trip stability

TEST(SerializationProperty, ReencodingADecodedMessageIsByteIdentical) {
  constexpr std::uint32_t kMagic = 0xfabfb5da;
  bsattack::Crafter crafter(bschain::ChainParams{});
  const std::vector<bsproto::Message> messages = {
      bsproto::PingMsg{42},
      crafter.ValidTx(),
      crafter.ValidBlock(bschain::ChainParams{}.GenesisBlock().Hash()),
      crafter.NonContinuousHeaders(),
      bsproto::FeeFilterMsg{12345},
  };
  for (const auto& msg : messages) {
    const ByteVec once = bsproto::EncodeMessage(kMagic, msg);
    const auto decoded = bsproto::DecodeMessage(kMagic, once);
    ASSERT_EQ(decoded.status, bsproto::DecodeStatus::kOk);
    const ByteVec twice = bsproto::EncodeMessage(kMagic, decoded.message);
    EXPECT_EQ(once, twice);
  }
}

// ---------------------------------------------------------------------------
// Store frame format: random record batches round-trip exactly, and ANY
// single-bit flip or truncation is detected — the scan returns an intact
// prefix of the original records, never a mis-decoded one.

std::vector<bsstore::Record> RandomBatch(bsutil::Rng& rng) {
  std::vector<bsstore::Record> records;
  const std::size_t count = 1 + rng.Below(8);
  for (std::size_t i = 0; i < count; ++i) {
    bsstore::Record record;
    record.type = static_cast<std::uint8_t>(1 + rng.Below(200));
    const std::size_t len = rng.Below(40);  // includes empty payloads
    for (std::size_t b = 0; b < len; ++b) {
      record.payload.push_back(static_cast<std::uint8_t>(rng.Below(256)));
    }
    records.push_back(std::move(record));
  }
  return records;
}

class StoreFrameProperty : public ::testing::TestWithParam<int> {};

TEST_P(StoreFrameProperty, RandomBatchesRoundTripExactly) {
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271);
  for (int round = 0; round < 50; ++round) {
    const std::vector<bsstore::Record> records = RandomBatch(rng);
    ByteVec buf;
    for (const bsstore::Record& record : records) {
      bsstore::AppendFrame(buf, record.type, record.payload);
    }
    bsstore::AppendFrame(buf, bsstore::kCommitRecord, {});
    const bsstore::ScanResult scan = bsstore::ScanFrames(buf);
    ASSERT_TRUE(scan.clean);
    ASSERT_EQ(scan.committed_records, records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(scan.records[i], records[i]);
    }
  }
}

/// The committed records a scan returns must be an exact prefix of the
/// originals — corruption may shorten what survives, never alter it.
/// (scan.records interleaves commit markers; committed_frame_count bounds
/// the frames at the last intact marker.)
void AssertIntactPrefix(const bsstore::ScanResult& scan,
                        const std::vector<bsstore::Record>& originals) {
  std::vector<bsstore::Record> committed;
  for (std::size_t i = 0; i < scan.committed_frame_count; ++i) {
    if (scan.records[i].type != bsstore::kCommitRecord) {
      committed.push_back(scan.records[i]);
    }
  }
  ASSERT_EQ(committed.size(), scan.committed_records);
  ASSERT_LE(committed.size(), originals.size());
  for (std::size_t i = 0; i < committed.size(); ++i) {
    ASSERT_EQ(committed[i], originals[i]);
  }
}

TEST_P(StoreFrameProperty, EverySingleBitFlipIsDetectedNeverMisdecoded) {
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 28657);
  const std::vector<bsstore::Record> records = RandomBatch(rng);
  ByteVec buf;
  for (const bsstore::Record& record : records) {
    bsstore::AppendFrame(buf, record.type, record.payload);
  }
  bsstore::AppendFrame(buf, bsstore::kCommitRecord, {});

  for (std::size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      ByteVec corrupt = buf;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const bsstore::ScanResult scan = bsstore::ScanFrames(corrupt);
      // The flip must be detected: CRC32 catches every single-bit error in
      // type/crc/payload, and a flipped length field desynchronizes framing,
      // which the per-frame CRC then rejects. Either way the scan can no
      // longer be clean with the full batch committed.
      ASSERT_FALSE(scan.clean && scan.committed_records == records.size())
          << "flip at byte " << byte << " bit " << bit << " went undetected";
      AssertIntactPrefix(scan, records);
    }
  }
}

TEST_P(StoreFrameProperty, EveryTruncationYieldsAnIntactPrefix) {
  bsutil::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  const std::vector<bsstore::Record> records = RandomBatch(rng);
  ByteVec buf;
  for (const bsstore::Record& record : records) {
    bsstore::AppendFrame(buf, record.type, record.payload);
    bsstore::AppendFrame(buf, bsstore::kCommitRecord, {});  // commit each
  }
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const bsstore::ScanResult scan =
        bsstore::ScanFrames(bsutil::ByteSpan(buf).first(len));
    // A truncation at a frame boundary reads as a legitimately shorter log
    // (clean); anywhere else it tears a frame (dirty). Either way the scan
    // must yield an intact prefix — never a partial or mutated record.
    AssertIntactPrefix(scan, records);
    ASSERT_LE(scan.committed_bytes, len);
  }
  const bsstore::ScanResult whole = bsstore::ScanFrames(buf);
  ASSERT_TRUE(whole.clean);
  ASSERT_EQ(whole.committed_records, records.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFrameProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
