#include "crypto/hash256.hpp"

#include <algorithm>

#include "util/hex.hpp"

namespace bscrypto {

Hash256 Hash256::FromHex(const std::string& hex_be) {
  Hash256 out;
  const auto decoded = bsutil::HexDecode(hex_be);
  if (!decoded || decoded->size() != kSize) return out;
  // Display hex is big-endian; storage is little-endian.
  for (std::size_t i = 0; i < kSize; ++i) out.bytes_[i] = (*decoded)[kSize - 1 - i];
  return out;
}

bool Hash256::IsZero() const {
  return std::all_of(bytes_.begin(), bytes_.end(), [](std::uint8_t b) { return b == 0; });
}

std::strong_ordering Hash256::operator<=>(const Hash256& other) const {
  // Most-significant byte is at index 31.
  for (int i = kSize - 1; i >= 0; --i) {
    if (bytes_[i] != other.bytes_[i]) return bytes_[i] <=> other.bytes_[i];
  }
  return std::strong_ordering::equal;
}

std::string Hash256::ToHex() const {
  std::array<std::uint8_t, kSize> be;
  for (std::size_t i = 0; i < kSize; ++i) be[i] = bytes_[kSize - 1 - i];
  return bsutil::HexEncode(be);
}

Hash256 Hash256::Deserialize(bsutil::Reader& r) {
  Hash256 out;
  const bsutil::ByteSpan bytes = r.ReadSpan(kSize);
  std::copy(bytes.begin(), bytes.end(), out.bytes_.begin());
  return out;
}

Hash256 Hash256::FromCompact(std::uint32_t bits, bool* negative, bool* overflow) {
  Hash256 out;
  const int exponent = static_cast<int>(bits >> 24);
  std::uint32_t mantissa = bits & 0x007fffff;
  if (negative) *negative = (bits & 0x00800000) != 0 && mantissa != 0;
  if (overflow) {
    *overflow = mantissa != 0 && (exponent > 34 || (mantissa > 0xff && exponent > 33) ||
                                  (mantissa > 0xffff && exponent > 32));
  }
  if (exponent <= 3) {
    mantissa >>= 8 * (3 - exponent);
    out.bytes_[0] = static_cast<std::uint8_t>(mantissa);
    out.bytes_[1] = static_cast<std::uint8_t>(mantissa >> 8);
    out.bytes_[2] = static_cast<std::uint8_t>(mantissa >> 16);
  } else {
    const int shift = exponent - 3;
    if (shift + 2 < static_cast<int>(kSize)) {
      out.bytes_[shift] = static_cast<std::uint8_t>(mantissa);
      out.bytes_[shift + 1] = static_cast<std::uint8_t>(mantissa >> 8);
      out.bytes_[shift + 2] = static_cast<std::uint8_t>(mantissa >> 16);
    }
  }
  return out;
}

std::uint32_t Hash256::ToCompact() const {
  // Find the most significant non-zero byte.
  int size = kSize;
  while (size > 0 && bytes_[size - 1] == 0) --size;
  if (size == 0) return 0;
  std::uint32_t mantissa = 0;
  if (size >= 3) {
    mantissa = static_cast<std::uint32_t>(bytes_[size - 1]) << 16 |
               static_cast<std::uint32_t>(bytes_[size - 2]) << 8 |
               static_cast<std::uint32_t>(bytes_[size - 3]);
  } else if (size == 2) {
    mantissa = static_cast<std::uint32_t>(bytes_[1]) << 16 |
               static_cast<std::uint32_t>(bytes_[0]) << 8;
  } else {
    mantissa = static_cast<std::uint32_t>(bytes_[0]) << 16;
  }
  // If the high bit of the mantissa is set, shift right and bump the exponent
  // to keep the sign bit clear (compact encodes sign in bit 23).
  if (mantissa & 0x00800000) {
    mantissa >>= 8;
    ++size;
  }
  return (static_cast<std::uint32_t>(size) << 24) | mantissa;
}

}  // namespace bscrypto
