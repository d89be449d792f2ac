#include "fuzz/reference_decoder.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "util/serialize.hpp"

namespace bsfuzz {

namespace {

std::optional<bsproto::MsgType> ReferenceMsgType(const std::string& command) {
  static const std::map<std::string, bsproto::MsgType> kMap = [] {
    std::map<std::string, bsproto::MsgType> m;
    for (const bsproto::MsgType t : bsproto::AllMsgTypes()) m.emplace(bsproto::CommandName(t), t);
    return m;
  }();
  const auto it = kMap.find(command);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

/// Throws DeserializeError when the command field has bytes after its NUL.
bsproto::MessageHeader ReferenceHeader(bsutil::ByteSpan data) {
  bsutil::Reader r(data);
  bsproto::MessageHeader h;
  h.magic = r.ReadU32();
  const bsutil::ByteVec cmd = r.ReadBytes(bsproto::kCommandSize);
  std::size_t len = 0;
  while (len < cmd.size() && cmd[len] != 0) ++len;
  for (std::size_t i = len; i < cmd.size(); ++i) {
    if (cmd[i] != 0) throw bsutil::DeserializeError("command has bytes after NUL padding");
  }
  h.command.assign(cmd.begin(), cmd.begin() + static_cast<std::ptrdiff_t>(len));
  h.length = r.ReadU32();
  const bsutil::ByteVec ck = r.ReadBytes(4);
  std::copy(ck.begin(), ck.end(), h.checksum.begin());
  return h;
}

}  // namespace

bsproto::DecodeResult ReferenceDecodeMessage(std::uint32_t magic, bsutil::ByteSpan stream) {
  using bsproto::DecodeStatus;
  bsproto::DecodeResult result;
  if (stream.size() < bsproto::kHeaderSize) return result;  // kNeedMoreData, consumed 0

  try {
    result.header = ReferenceHeader(stream.subspan(0, bsproto::kHeaderSize));
  } catch (const bsutil::DeserializeError&) {
    result.status = DecodeStatus::kMalformed;
    result.consumed = bsproto::kHeaderSize;
    return result;
  }
  if (result.header.magic != magic) {
    result.status = DecodeStatus::kBadMagic;
    result.consumed = bsproto::kHeaderSize;
    return result;
  }
  if (result.header.length > bsproto::kMaxFramePayload) {
    result.status = DecodeStatus::kOversize;
    result.consumed = bsproto::kHeaderSize;
    return result;
  }
  const std::size_t frame_size = bsproto::kHeaderSize + result.header.length;
  if (stream.size() < frame_size) return result;

  const bsutil::ByteSpan payload = stream.subspan(bsproto::kHeaderSize, result.header.length);
  result.consumed = frame_size;
  if (bsproto::PayloadChecksum(payload) != result.header.checksum) {
    result.status = DecodeStatus::kBadChecksum;
    return result;
  }
  const auto type = ReferenceMsgType(result.header.command);
  if (!type) {
    result.status = DecodeStatus::kUnknownCommand;
    return result;
  }
  try {
    result.message = bsproto::DeserializePayload(*type, payload);
  } catch (const bsutil::DeserializeError&) {
    result.status = DecodeStatus::kMalformed;
    return result;
  }
  result.status = DecodeStatus::kOk;
  return result;
}

}  // namespace bsfuzz
