// Wire framing: the 24-byte message header (magic / command / length /
// checksum) and encode/decode with checksum verification.
//
// The checksum check runs BEFORE any payload parsing or misbehavior
// tracking — exactly the ordering the paper's "forgoing ban score by
// constructing bogus messages" vector exploits: a message whose checksum does
// not match its payload is dropped with no ban-score consequence.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "proto/messages.hpp"
#include "util/bytes.hpp"

namespace bsproto {

constexpr std::size_t kHeaderSize = 24;

/// First 4 bytes of double-SHA256 over the payload.
std::array<std::uint8_t, 4> PayloadChecksum(bsutil::ByteSpan payload);

struct MessageHeader {
  std::uint32_t magic = 0;
  std::string command;  // up to 12 bytes, NUL padded on the wire
  std::uint32_t length = 0;
  std::array<std::uint8_t, 4> checksum = {};

  bsutil::ByteVec Serialize() const;
  /// Parses the first kHeaderSize bytes; throws DeserializeError when shorter
  /// or when the command field contains bytes after a NUL terminator. Reads
  /// through the same in-place header look as the decoder.
  static MessageHeader Deserialize(bsutil::ByteSpan data);
};

/// Encode a well-formed message: header with correct length and checksum,
/// then payload.
bsutil::ByteVec EncodeMessage(std::uint32_t magic, const Message& msg);

/// Encode raw bytes under an arbitrary command with an arbitrary checksum —
/// the attacker-side primitive for crafting bogus messages (wrong checksum,
/// unknown command, malformed payload).
bsutil::ByteVec EncodeRaw(std::uint32_t magic, const std::string& command,
                          bsutil::ByteSpan payload,
                          const std::array<std::uint8_t, 4>* forced_checksum = nullptr);

/// Decode outcome. The enum order reflects the processing pipeline: each
/// failure short-circuits everything after it.
enum class DecodeStatus {
  kOk,
  kNeedMoreData,     // incomplete header or payload
  kBadMagic,         // wrong network
  kOversize,         // declared length exceeds kMaxFramePayload
  kBadChecksum,      // dropped before any payload processing
  kUnknownCommand,   // parsed but not one of the 26 types (ignored, no ban)
  kMalformed,        // payload failed deserialization
};

/// Process-wide count of frames rejected for a declared length above
/// kMaxFramePayload. The node mirrors this into the
/// bs_codec_oversize_reject_total metric; tests and fuzz harnesses assert on
/// it directly.
std::uint64_t CodecOversizeRejects();

const char* ToString(DecodeStatus s);

/// One decoded frame. StreamDecoder::Next() decodes into a caller-owned
/// result in place, so a result reused across frames makes no allocation for
/// frames that carry no heap-backed payload (PING, PONG, every dropped frame).
/// `header` is rewritten on every outcome: the wire fields on a header-
/// complete frame, all zero when the command field is malformed. `message` is
/// assigned only on kOk; on any other status it still holds whatever it held.
struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMoreData;
  MessageHeader header;
  // Valid only when status == kOk. Defaults to VERACK, an empty message,
  // because a VersionMsg's user agent would cost a fresh result an allocation.
  Message message = VerackMsg{};
  std::size_t consumed = 0;  // bytes to drop from the stream
};

/// Decode one message from the front of `stream`. Consumes the full frame on
/// any header-complete outcome so the stream can resynchronize. A thin wrapper
/// over the routine StreamDecoder::Next() runs: kNeedMoreData returns a
/// default result (consumed 0).
DecodeResult DecodeMessage(std::uint32_t magic, bsutil::ByteSpan stream);

/// Header-only view of the frame at the front of `stream` — command string,
/// the resolved MsgType when the command is known, and the full frame size
/// (header + declared payload). No checksum verification and no payload
/// parsing, so it is cheap enough for tracing instrumentation to label raw
/// frames (including deliberately bogus ones) at send time. Returns false
/// when the stream is shorter than a header, the magic mismatches or the
/// command field has bytes after its NUL padding. `frame_size` uses the
/// declared length even when it exceeds kMaxFramePayload.
struct FramePeek {
  std::string command;
  int msg_type = -1;  // static_cast<int>(MsgType) when known, -1 otherwise
  std::size_t frame_size = 0;
};
bool PeekFrame(std::uint32_t magic, bsutil::ByteSpan stream, FramePeek& out);

/// Incremental frame decoder over arbitrarily split input, and the one
/// reassembly path of the node and the attacker. Feed() accepts any chunking
/// of a byte stream — single bytes, whole frames, frame-and-a-half — and
/// Next() yields exactly the sequence of DecodeResults that DecodeMessage
/// would produce over the concatenated stream. Next() looks at the front
/// header once and decodes only when it says the frame is complete, so every
/// status, consumed count, and side effect (including the process-wide
/// oversize counter) fires once per frame regardless of how the bytes arrived.
class StreamDecoder {
 public:
  /// `max_buffer` bounds the bytes held across Feed() calls; 0 = unbounded.
  /// Since DecodeMessage never waits for more than a header plus
  /// kMaxFramePayload, any cap >= kHeaderSize + kMaxFramePayload never
  /// truncates a frame that is being drained; past the cap, Feed() drops the
  /// oldest buffered bytes (OverflowBytes() counts them) and decoding
  /// resynchronizes on the header-complete outcomes that follow.
  explicit StreamDecoder(std::uint32_t magic, std::size_t max_buffer = 0);

  /// Appends bytes to the reassembly buffer.
  void Feed(bsutil::ByteSpan data);

  /// Decodes the next frame into `out`, in place, if the buffer holds a
  /// header-complete outcome. Returns false (and leaves `out` untouched) when
  /// more bytes are needed.
  bool Next(DecodeResult& out);

  /// Additional bytes that must arrive before the front frame can complete:
  /// bytes-to-a-full-header when the header is partial, else
  /// bytes-to-the-declared-frame-end. 0 when Next() would succeed right now
  /// (including bad-magic / oversize frames, which decode without payload).
  std::size_t BytesNeeded() const;

  /// Stream offset of the first byte Next() has not decoded yet: every byte
  /// fed before it was either decoded or shed.
  std::uint64_t StreamPosition() const { return fed_bytes_ - BufferedBytes(); }
  std::size_t BufferedBytes() const { return buffer_.size() - offset_; }
  std::uint64_t FramesDecoded() const { return frames_decoded_; }
  std::uint64_t OverflowBytes() const { return overflow_bytes_; }

 private:
  void Compact();

  std::uint32_t magic_;
  std::size_t max_buffer_;
  bsutil::ByteVec buffer_;
  std::size_t offset_ = 0;  // consumed prefix awaiting compaction
  std::uint64_t fed_bytes_ = 0;
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t overflow_bytes_ = 0;
};

}  // namespace bsproto
