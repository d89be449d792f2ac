#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_shani.hpp"

namespace bscrypto {

namespace detail {

const std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace detail

namespace {

constexpr std::uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                            0xa54ff53a, 0x510e527f, 0x9b05688c,
                                            0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t Rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline std::uint32_t Ch(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline std::uint32_t Maj(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}
inline std::uint32_t BigSigma0(std::uint32_t x) {
  return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22);
}
inline std::uint32_t BigSigma1(std::uint32_t x) {
  return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25);
}
inline std::uint32_t SmallSigma0(std::uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t SmallSigma1(std::uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}

void StoreDigest(const std::uint32_t* state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Hashes all of `data` into `state`: its whole blocks straight from the
/// input in one kernel call, then the padded tail from the stack. A tail of
/// up to 55 bytes leaves room for 0x80 and the 64-bit length in one block;
/// a longer one spills into a second.
void HashInto(detail::Kernel kernel, std::uint32_t* state, bsutil::ByteSpan data) {
  const std::size_t whole = data.size() / 64;
  if (whole > 0) kernel(state, data.data(), whole);
  const std::size_t rem = data.size() % 64;
  const std::size_t tail_blocks = rem <= 55 ? 1 : 2;
  std::uint8_t tail[128] = {};
  if (rem > 0) std::memcpy(tail, data.data() + 64 * whole, rem);
  tail[rem] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  std::uint8_t* len = tail + 64 * tail_blocks - 8;
  for (int i = 0; i < 8; ++i) len[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  kernel(state, tail, tail_blocks);
}

}  // namespace

namespace detail {

void TransformScalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = SmallSigma1(w[i - 2]) + w[i - 7] + SmallSigma0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kRoundConstants[i] + w[i];
      const std::uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Kernel ShaniKernel() {
#if defined(BSCRYPTO_SHANI)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return TransformShani;
  }
#endif
  return nullptr;
}

Kernel ActiveKernel() {
  static const Kernel kernel = [] {
    const Kernel shani = ShaniKernel();
    return shani != nullptr ? shani : TransformScalar;
  }();
  return kernel;
}

Sha256::Digest Hash(Kernel kernel, bsutil::ByteSpan data) {
  std::uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof state);
  HashInto(kernel, state, data);
  Sha256::Digest out;
  StoreDigest(state, out.data());
  return out;
}

Sha256::Digest HashD(Kernel kernel, bsutil::ByteSpan data) {
  std::uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof state);
  HashInto(kernel, state, data);
  // The second pass hashes a 32-byte digest, so it is one block whose
  // padding never changes: 0x80, zeros, and the bit length 256.
  std::uint8_t block[64] = {};
  StoreDigest(state, block);
  block[32] = 0x80;
  block[62] = 0x01;
  std::memcpy(state, kInitialState, sizeof state);
  kernel(state, block, 1);
  Sha256::Digest out;
  StoreDigest(state, out.data());
  return out;
}

}  // namespace detail

void Sha256::Reset() {
  std::memcpy(state_, kInitialState, sizeof state_);
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::Update(bsutil::ByteSpan data) {
  const detail::Kernel kernel = detail::ActiveKernel();
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    if (take > 0) std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      kernel(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block left in the input goes to the kernel in one call.
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    kernel(state_, data.data() + offset, whole);
    offset += 64 * whole;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

void Sha256::Finalize(Digest& out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80 then zeros until 56 mod 64, then 8-byte big-endian length.
  std::uint8_t pad[72];
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  const std::size_t rem = (buffer_len_ + 1) % 64;
  const std::size_t zeros = (rem <= 56) ? (56 - rem) : (120 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  Update(bsutil::ByteSpan(pad, pad_len));
  StoreDigest(state_, out.data());
}

Sha256::Digest Sha256::Hash(bsutil::ByteSpan data) {
  return detail::Hash(detail::ActiveKernel(), data);
}

Sha256::Digest Sha256::HashD(bsutil::ByteSpan data) {
  return detail::HashD(detail::ActiveKernel(), data);
}

const char* Sha256::Implementation() {
  return detail::ActiveKernel() == detail::TransformScalar ? "scalar" : "shani";
}

}  // namespace bscrypto
