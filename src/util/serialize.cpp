#include "util/serialize.hpp"

namespace bsutil {

void Writer::WriteU16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::WriteU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::WriteU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::WriteBytes(ByteSpan data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Writer::WriteCompactSize(std::uint64_t v) {
  if (v < 0xfd) {
    WriteU8(static_cast<std::uint8_t>(v));
  } else if (v <= 0xffff) {
    WriteU8(0xfd);
    WriteU16(static_cast<std::uint16_t>(v));
  } else if (v <= 0xffffffff) {
    WriteU8(0xfe);
    WriteU32(static_cast<std::uint32_t>(v));
  } else {
    WriteU8(0xff);
    WriteU64(v);
  }
}

void Writer::WriteVarBytes(ByteSpan data) {
  WriteCompactSize(data.size());
  WriteBytes(data);
}

void Writer::WriteVarString(const std::string& s) {
  WriteCompactSize(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t Reader::ReadU8() {
  Need(1);
  return data_[pos_++];
}

std::uint16_t Reader::ReadU16() {
  Need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::ReadU32() {
  Need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::ReadU64() {
  Need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

ByteVec Reader::ReadBytes(std::size_t n) {
  const ByteSpan bytes = ReadSpan(n);
  return ByteVec(bytes.begin(), bytes.end());
}

ByteSpan Reader::ReadSpan(std::size_t n) {
  Need(n);
  const ByteSpan out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint64_t Reader::ReadCompactSize() {
  const std::uint8_t tag = ReadU8();
  std::uint64_t v;
  if (tag < 0xfd) {
    return tag;
  } else if (tag == 0xfd) {
    v = ReadU16();
    if (v < 0xfd) throw DeserializeError("non-canonical CompactSize");
  } else if (tag == 0xfe) {
    v = ReadU32();
    if (v <= 0xffff) throw DeserializeError("non-canonical CompactSize");
  } else {
    v = ReadU64();
    if (v <= 0xffffffff) throw DeserializeError("non-canonical CompactSize");
  }
  return v;
}

ByteVec Reader::ReadVarBytes(std::size_t max_len) {
  const std::uint64_t n = ReadCompactSize();
  if (n > max_len) throw DeserializeError("var bytes length exceeds limit");
  return ReadBytes(static_cast<std::size_t>(n));
}

std::string Reader::ReadVarString(std::size_t max_len) {
  const std::uint64_t n = ReadCompactSize();
  if (n > max_len) throw DeserializeError("var string length exceeds limit");
  Need(static_cast<std::size_t>(n));
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

}  // namespace bsutil
