// Protocol constants and the catalogue of the 26 Bitcoin P2P message types
// (per the developer reference the paper cites). The oversize limits here are
// exactly the bounds the Table I ban-score rules fire on.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace bsproto {

/// Protocol version spoken by our nodes (the paper's testbed: Satoshi 0.20.0,
/// protocol 70015).
constexpr std::int32_t kProtocolVersion = 70015;

/// The BIP-37 version gate for FILTERADD/FILTERLOAD deprecation (Table I:
/// "protocol version number >= 70011").
constexpr std::int32_t kNoBloomVersion = 70011;

constexpr const char* kUserAgent = "/banscore-repro:1.0.0/";

/// Service flags.
constexpr std::uint64_t kNodeNetwork = 1;
constexpr std::uint64_t kNodeWitness = 1 << 3;

/// Hard cap on any message payload (Bitcoin's MAX_PROTOCOL_MESSAGE_LENGTH).
constexpr std::size_t kMaxProtocolMessageLength = 4'000'000;

/// Decode-side allocation bound. Every pre-allocation on the receive path
/// (frame assembly, var-bytes fields) is clamped by this constant rather than
/// by a length field an attacker controls; a declared length above it is
/// rejected as DecodeStatus::kOversize before any buffer is sized from it.
/// Kept as a separate name from kMaxProtocolMessageLength so the framing
/// bound can diverge from the consensus constant if the transport ever grows
/// its own envelope.
constexpr std::size_t kMaxFramePayload = kMaxProtocolMessageLength;

/// Oversize bounds with ban-score rules attached (Table I).
constexpr std::size_t kMaxAddrToSend = 1'000;        // ADDR
constexpr std::size_t kMaxInvEntries = 50'000;       // INV / GETDATA
constexpr std::size_t kMaxHeadersResults = 2'000;    // HEADERS
constexpr std::size_t kMaxBloomFilterSize = 36'000;  // FILTERLOAD, bytes
constexpr std::size_t kMaxScriptElementSize = 520;   // FILTERADD, bytes

/// Non-connecting HEADERS tolerated before the +20 misbehavior fires
/// (Bitcoin Core's MAX_UNCONNECTING_HEADERS).
constexpr int kMaxUnconnectingHeaders = 10;

/// The full set of 26 P2P message types from the developer reference.
enum class MsgType : std::uint8_t {
  kVersion = 0,
  kVerack,
  kAddr,
  kInv,
  kGetData,
  kNotFound,
  kGetBlocks,
  kGetHeaders,
  kHeaders,
  kTx,
  kBlock,
  kPing,
  kPong,
  kGetAddr,
  kMempool,
  kSendHeaders,
  kFeeFilter,
  kSendCmpct,
  kCmpctBlock,
  kGetBlockTxn,
  kBlockTxn,
  kFilterLoad,
  kFilterAdd,
  kFilterClear,
  kMerkleBlock,
  kReject,
  // Post-0.20 extension: the partition-resilience gossip tip-probe (a
  // compact tip-height/hash vector, per arXiv:2007.02287). Appended after
  // the paper's 26 types so every historical enum value, variant index, and
  // serialized command stays untouched; nodes that predate it simply ignore
  // the unknown "tipprobe" command, unpunished.
  kTipProbe,
};

constexpr std::size_t kNumMsgTypes = 27;
/// The size of the paper's original catalogue ("only 12 out of 26 message
/// types possess corresponding ban-score rules") — excludes kTipProbe.
constexpr std::size_t kNumPaperMsgTypes = 26;

/// All message types, in enum order (for parameterized sweeps).
const std::array<MsgType, kNumMsgTypes>& AllMsgTypes();

/// Width of the NUL-padded command field of a frame header.
constexpr std::size_t kCommandSize = 12;

/// Wire command string ("version", "verack", ...).
const char* CommandName(MsgType type);

/// Reverse lookup of a header's command field: the kCommandSize bytes at
/// `field`, exactly as they sit on the wire (NUL padded). A fixed-width table
/// built at compile time answers it with no allocation; nullopt for unknown
/// commands, including a field with bytes after its NUL padding.
std::optional<MsgType> MsgTypeFromCommandField(const std::uint8_t* field);

/// Reverse lookup of a command string; nullopt for unknown commands, for
/// strings longer than kCommandSize and for strings holding a NUL.
std::optional<MsgType> MsgTypeFromCommand(const std::string& command);

}  // namespace bsproto
