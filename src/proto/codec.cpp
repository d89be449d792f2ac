#include "proto/codec.hpp"

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

// What the fixed header fields alone decide, read in place without
// allocating. kMalformed (bytes after the command's NUL padding), kBadMagic
// and kOversize each end the frame at the header; kOk means the frame runs on
// for `length` payload bytes. DecodeMessage and StreamDecoder both ask here,
// so these rules exist once.
struct HeaderLook {
  DecodeStatus status = DecodeStatus::kOk;
  std::uint32_t length = 0;

  std::size_t FrameSize() const {
    return kHeaderSize + (status == DecodeStatus::kOk ? length : 0);
  }
};

HeaderLook LookAtHeader(std::uint32_t magic, const std::uint8_t* header) {
  const std::uint8_t* cmd = header + 4;
  std::size_t len = 0;
  while (len < kCommandSize && cmd[len] != 0) ++len;
  for (std::size_t i = len; i < kCommandSize; ++i) {
    if (cmd[i] != 0) return {DecodeStatus::kMalformed, 0};
  }
  // A foreign frame's length cannot be trusted.
  if (LoadU32(header) != magic) return {DecodeStatus::kBadMagic, 0};
  const std::uint32_t length = LoadU32(header + 4 + kCommandSize);
  // Length-field lie: never size a buffer (or wait for payload bytes) off a
  // declared length beyond the frame bound.
  if (length > kMaxFramePayload) return {DecodeStatus::kOversize, 0};
  return {DecodeStatus::kOk, length};
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
  bsutil::Reader r(data);
  MessageHeader h;
  h.magic = r.ReadU32();
  const auto cmd = r.ReadBytes(kCommandSize);
  std::size_t len = 0;
  while (len < kCommandSize && cmd[len] != 0) ++len;
  for (std::size_t i = len; i < kCommandSize; ++i) {
    if (cmd[i] != 0) throw bsutil::DeserializeError("command has bytes after NUL padding");
  }
  h.command.assign(cmd.begin(), cmd.begin() + static_cast<std::ptrdiff_t>(len));
  h.length = r.ReadU32();
  const auto ck = r.ReadBytes(4);
  std::copy(ck.begin(), ck.end(), h.checksum.begin());
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
  if (stream.size() < kHeaderSize) return result;  // kNeedMoreData, consumed 0

  const HeaderLook look = LookAtHeader(magic, stream.data());
  if (look.status != DecodeStatus::kMalformed) {
    result.header = MessageHeader::Deserialize(stream.subspan(0, kHeaderSize));
  }
  if (look.status != DecodeStatus::kOk) {
    if (look.status == DecodeStatus::kOversize) {
      g_oversize_rejects.fetch_add(1, std::memory_order_relaxed);
    }
    result.status = look.status;
    result.consumed = kHeaderSize;
    return result;
  }
  if (stream.size() < look.FrameSize()) return result;

  const bsutil::ByteSpan payload = stream.subspan(kHeaderSize, result.header.length);
  result.consumed = look.FrameSize();

  // Checksum gate: runs before anything looks at the payload, so a failed
  // checksum never reaches the misbehavior tracker (the bogus-message vector).
  if (PayloadChecksum(payload) != result.header.checksum) {
    result.status = DecodeStatus::kBadChecksum;
    return result;
  }

  const auto type = MsgTypeFromCommand(result.header.command);
  if (!type) {
    result.status = DecodeStatus::kUnknownCommand;
    return result;
  }

  try {
    result.message = DeserializePayload(*type, payload);
  } catch (const bsutil::DeserializeError&) {
    result.status = DecodeStatus::kMalformed;
    return result;
  }
  result.status = DecodeStatus::kOk;
  return result;
}

bool PeekFrame(std::uint32_t magic, bsutil::ByteSpan stream, FramePeek& out) {
  if (stream.size() < kHeaderSize) return false;
  MessageHeader header;
  try {
    header = MessageHeader::Deserialize(stream.subspan(0, kHeaderSize));
  } catch (const bsutil::DeserializeError&) {
    return false;
  }
  if (header.magic != magic) return false;
  out.command = header.command;
  const auto type = MsgTypeFromCommand(header.command);
  out.msg_type = type ? static_cast<int>(*type) : -1;
  out.frame_size = kHeaderSize + header.length;
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
  if (BytesNeeded() != 0) return false;
  out = DecodeMessage(magic_, bsutil::ByteSpan(buffer_.data() + offset_, BufferedBytes()));
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
