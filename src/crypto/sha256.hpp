// From-scratch SHA-256 (FIPS 180-4). Used for message checksums, block/tx
// ids (double-SHA256), proof-of-work, and merkle trees.
//
// The compression function has two kernels: the portable scalar reference
// and, on x86-64 CPUs with the SHA extensions, a SHA-NI kernel
// (sha256_shani.cpp). The kernel is chosen once per process, on first use;
// every kernel yields byte-identical digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace bscrypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { Reset(); }

  void Reset();
  Sha256& Update(bsutil::ByteSpan data);
  /// Finalize into `out`; the hasher must be Reset() before reuse.
  void Finalize(Digest& out);

  /// One-shot convenience.
  static Digest Hash(bsutil::ByteSpan data);
  /// Bitcoin double-SHA256: SHA256(SHA256(data)).
  static Digest HashD(bsutil::ByteSpan data);

  /// The kernel this process runs: "shani" or "scalar".
  static const char* Implementation();

 private:
  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

namespace detail {

/// A compression kernel: folds `blocks` consecutive 64-byte blocks into
/// `state` (eight words, FIPS 180-4 order).
using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks);

/// The portable reference kernel and the fallback.
void TransformScalar(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks);

/// The SHA-NI kernel, or nullptr when this build or this CPU lacks it.
Kernel ShaniKernel();

/// The kernel every Sha256 uses; chosen once per process, on first use.
Kernel ActiveKernel();

/// One-shot digests through an explicit kernel, so tests can hold any
/// kernel against the scalar reference.
Sha256::Digest Hash(Kernel kernel, bsutil::ByteSpan data);
Sha256::Digest HashD(Kernel kernel, bsutil::ByteSpan data);

}  // namespace detail

}  // namespace bscrypto
