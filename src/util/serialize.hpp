// Little-endian wire (de)serialization used by the Bitcoin protocol layer.
//
// Bitcoin serializes all integers little-endian and uses the CompactSize
// ("varint") encoding for collection lengths. `Writer` appends to an owned
// buffer; `Reader` consumes a non-owning view and throws DeserializeError on
// truncated or malformed input, which the protocol codec maps to a decode
// failure (and, at the node layer, to a misbehavior event where applicable).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"

namespace bsutil {

/// Thrown by Reader on truncated input, oversized lengths, or non-canonical
/// CompactSize encodings.
class DeserializeError : public std::runtime_error {
 public:
  explicit DeserializeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian serializer.
class Writer {
 public:
  Writer() = default;

  void WriteU8(std::uint8_t v) { buf_.push_back(v); }
  void WriteU16(std::uint16_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI32(std::int32_t v) { WriteU32(static_cast<std::uint32_t>(v)); }
  void WriteI64(std::int64_t v) { WriteU64(static_cast<std::uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  /// IEEE-754 bit pattern, little-endian (exact round-trip, NaN included).
  void WriteDouble(double v) { WriteU64(std::bit_cast<std::uint64_t>(v)); }
  void WriteBytes(ByteSpan data);
  /// Bitcoin CompactSize: 1, 3, 5, or 9 bytes depending on magnitude.
  void WriteCompactSize(std::uint64_t v);
  /// CompactSize length prefix followed by the raw bytes.
  void WriteVarBytes(ByteSpan data);
  /// CompactSize length prefix followed by the string bytes (Bitcoin "var_str").
  void WriteVarString(const std::string& s);

  const ByteVec& Data() const { return buf_; }
  ByteVec TakeData() { return std::move(buf_); }
  std::size_t Size() const { return buf_.size(); }

 private:
  ByteVec buf_;
};

/// Consuming little-endian deserializer over a borrowed byte view.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  std::uint8_t ReadU8();
  std::uint16_t ReadU16();
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int32_t ReadI32() { return static_cast<std::int32_t>(ReadU32()); }
  std::int64_t ReadI64() { return static_cast<std::int64_t>(ReadU64()); }
  bool ReadBool() { return ReadU8() != 0; }
  double ReadDouble() { return std::bit_cast<double>(ReadU64()); }
  ByteVec ReadBytes(std::size_t n);
  /// The next `n` bytes as a view into the input: no copy, no allocation.
  ByteSpan ReadSpan(std::size_t n);
  /// Reads a CompactSize and enforces canonical (minimal) encoding, as
  /// Bitcoin Core does for lengths.
  std::uint64_t ReadCompactSize();
  /// CompactSize-prefixed byte vector, bounded by `max_len`.
  ByteVec ReadVarBytes(std::size_t max_len = 32 * 1024 * 1024);
  std::string ReadVarString(std::size_t max_len = 256);

  std::size_t Remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Position() const { return pos_; }

 private:
  void Need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw DeserializeError("truncated input: need " + std::to_string(n) +
                             " bytes, have " + std::to_string(data_.size() - pos_));
    }
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace bsutil
