#include "proto/codec.hpp"

#include <algorithm>
#include <atomic>

#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace bsproto {

namespace {
// Decode is a free function with no instance to hang a metrics handle on, so
// oversize rejections land in a process-wide relaxed counter; the node
// mirrors it into bs_codec_oversize_reject_total (and tests/fuzz harnesses
// read it directly).
std::atomic<std::uint64_t> g_oversize_rejects{0};

std::uint32_t LoadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// The fixed header fields, read in place with no Reader and no allocation.
// kMalformed (bytes after the command's NUL padding), kBadMagic and kOversize
// each end the frame at the header; kOk means the frame runs on for `length`
// payload bytes. Every header reader — StreamDecoder, DecodeMessage,
// PeekFrame, MessageHeader::Deserialize — asks here, so these rules exist
// once. `magic` and `length` are the wire values whenever the command field
// is well formed, even on kBadMagic and kOversize.
struct HeaderLook {
  DecodeStatus status = DecodeStatus::kOk;
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  std::size_t command_len = 0;

  std::size_t FrameSize() const {
    return kHeaderSize + (status == DecodeStatus::kOk ? length : 0);
  }
};

HeaderLook LookAtHeader(std::uint32_t magic, const std::uint8_t* header) {
  HeaderLook look;
  const std::uint8_t* cmd = header + 4;
  while (look.command_len < kCommandSize && cmd[look.command_len] != 0) ++look.command_len;
  for (std::size_t i = look.command_len; i < kCommandSize; ++i) {
    if (cmd[i] != 0) {
      look.status = DecodeStatus::kMalformed;
      look.command_len = 0;
      return look;
    }
  }
  look.magic = LoadU32(header);
  look.length = LoadU32(header + 4 + kCommandSize);
  // A foreign frame's length cannot be trusted.
  if (look.magic != magic) {
    look.status = DecodeStatus::kBadMagic;
  } else if (look.length > kMaxFramePayload) {
    // Length-field lie: never size a buffer (or wait for payload bytes) off
    // a declared length beyond the frame bound.
    look.status = DecodeStatus::kOversize;
  }
  return look;
}

// Rewrites every field of `out` from the header `look` describes; all zero
// when the command field is malformed. The command is at most 12 bytes, so
// assigning it stays inside std::string's inline buffer.
void FillHeader(const HeaderLook& look, const std::uint8_t* header, MessageHeader& out) {
  out.magic = look.magic;
  out.command.assign(reinterpret_cast<const char*>(header + 4), look.command_len);
  out.length = look.length;
  if (look.status == DecodeStatus::kMalformed) {
    out.checksum = {};
  } else {
    std::copy(header + 4 + kCommandSize + 4, header + kHeaderSize, out.checksum.begin());
  }
}

// The one decoder. Decodes the frame at the front of `stream` into `out` in
// place and returns true, or returns false with `out` untouched when the
// frame is not complete yet.
bool DecodeFront(std::uint32_t magic, bsutil::ByteSpan stream, DecodeResult& out) {
  if (stream.size() < kHeaderSize) return false;
  const HeaderLook look = LookAtHeader(magic, stream.data());
  if (stream.size() < look.FrameSize()) return false;

  FillHeader(look, stream.data(), out.header);
  out.consumed = look.FrameSize();
  if (look.status != DecodeStatus::kOk) {
    if (look.status == DecodeStatus::kOversize) {
      g_oversize_rejects.fetch_add(1, std::memory_order_relaxed);
    }
    out.status = look.status;
    return true;
  }

  const bsutil::ByteSpan payload = stream.subspan(kHeaderSize, look.length);
  // Checksum gate: runs before anything looks at the payload, so a failed
  // checksum never reaches the misbehavior tracker (the bogus-message vector).
  if (PayloadChecksum(payload) != out.header.checksum) {
    out.status = DecodeStatus::kBadChecksum;
    return true;
  }

  const auto type = MsgTypeFromCommandField(stream.data() + 4);
  if (!type) {
    out.status = DecodeStatus::kUnknownCommand;
    return true;
  }

  try {
    out.message = DeserializePayload(*type, payload);
  } catch (const bsutil::DeserializeError&) {
    out.status = DecodeStatus::kMalformed;
    return true;
  }
  out.status = DecodeStatus::kOk;
  return true;
}
}  // namespace

std::uint64_t CodecOversizeRejects() {
  return g_oversize_rejects.load(std::memory_order_relaxed);
}

std::array<std::uint8_t, 4> PayloadChecksum(bsutil::ByteSpan payload) {
  const auto digest = bscrypto::Sha256::HashD(payload);
  return {digest[0], digest[1], digest[2], digest[3]};
}

bsutil::ByteVec MessageHeader::Serialize() const {
  bsutil::Writer w;
  w.WriteU32(magic);
  char cmd[kCommandSize] = {};
  for (std::size_t i = 0; i < command.size() && i < kCommandSize; ++i) cmd[i] = command[i];
  w.WriteBytes(bsutil::ByteSpan(reinterpret_cast<const std::uint8_t*>(cmd), kCommandSize));
  w.WriteU32(length);
  w.WriteBytes(checksum);
  return w.TakeData();
}

MessageHeader MessageHeader::Deserialize(bsutil::ByteSpan data) {
  if (data.size() < kHeaderSize) throw bsutil::DeserializeError("header truncated");
  // Any magic will do: only a malformed command field fails here.
  const HeaderLook look = LookAtHeader(0, data.data());
  if (look.status == DecodeStatus::kMalformed) {
    throw bsutil::DeserializeError("command has bytes after NUL padding");
  }
  MessageHeader h;
  FillHeader(look, data.data(), h);
  return h;
}

bsutil::ByteVec EncodeMessage(std::uint32_t magic, const Message& msg) {
  const bsutil::ByteVec payload = SerializePayload(msg);
  MessageHeader header;
  header.magic = magic;
  header.command = CommandName(MsgTypeOf(msg));
  header.length = static_cast<std::uint32_t>(payload.size());
  header.checksum = PayloadChecksum(payload);
  bsutil::ByteVec out = header.Serialize();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bsutil::ByteVec EncodeRaw(std::uint32_t magic, const std::string& command,
                          bsutil::ByteSpan payload,
                          const std::array<std::uint8_t, 4>* forced_checksum) {
  MessageHeader header;
  header.magic = magic;
  header.command = command;
  header.length = static_cast<std::uint32_t>(payload.size());
  header.checksum = forced_checksum ? *forced_checksum : PayloadChecksum(payload);
  bsutil::ByteVec out = header.Serialize();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

const char* ToString(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMoreData: return "need-more-data";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kOversize: return "oversize";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
    case DecodeStatus::kUnknownCommand: return "unknown-command";
    case DecodeStatus::kMalformed: return "malformed";
  }
  return "?";
}

DecodeResult DecodeMessage(std::uint32_t magic, bsutil::ByteSpan stream) {
  DecodeResult result;
  DecodeFront(magic, stream, result);
  return result;
}

bool PeekFrame(std::uint32_t magic, bsutil::ByteSpan stream, FramePeek& out) {
  if (stream.size() < kHeaderSize) return false;
  const HeaderLook look = LookAtHeader(magic, stream.data());
  if (look.status == DecodeStatus::kMalformed || look.status == DecodeStatus::kBadMagic) {
    return false;
  }
  out.command.assign(reinterpret_cast<const char*>(stream.data() + 4), look.command_len);
  const auto type = MsgTypeFromCommandField(stream.data() + 4);
  out.msg_type = type ? static_cast<int>(*type) : -1;
  out.frame_size = kHeaderSize + look.length;
  return true;
}

// ---------------------------------------------------------------------------
// StreamDecoder

StreamDecoder::StreamDecoder(std::uint32_t magic, std::size_t max_buffer)
    : magic_(magic), max_buffer_(max_buffer) {}

void StreamDecoder::Feed(bsutil::ByteSpan data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  fed_bytes_ += data.size();
  if (max_buffer_ > 0 && BufferedBytes() > max_buffer_) {
    // Drop-oldest: the bytes that have waited longest are the ones a stalled
    // frame is sitting on; shedding them lets the decoder resynchronize on
    // whatever arrives next instead of wedging on a forever-partial frame.
    const std::size_t excess = BufferedBytes() - max_buffer_;
    offset_ += excess;
    overflow_bytes_ += excess;
  }
  Compact();
}

bool StreamDecoder::Next(DecodeResult& out) {
  if (!DecodeFront(magic_, bsutil::ByteSpan(buffer_.data() + offset_, BufferedBytes()), out)) {
    return false;
  }
  offset_ += out.consumed;
  ++frames_decoded_;
  Compact();
  return true;
}

std::size_t StreamDecoder::BytesNeeded() const {
  const std::size_t remaining = BufferedBytes();
  if (remaining < kHeaderSize) return kHeaderSize - remaining;
  const std::size_t need = LookAtHeader(magic_, buffer_.data() + offset_).FrameSize();
  return remaining >= need ? 0 : need - remaining;
}

void StreamDecoder::Compact() {
  // Amortized O(1): only memmove once the dead prefix dominates the buffer.
  if (offset_ == 0) return;
  if (offset_ >= buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
    return;
  }
  if (offset_ < 4096 || offset_ < buffer_.size() / 2) return;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
  offset_ = 0;
}

}  // namespace bsproto
