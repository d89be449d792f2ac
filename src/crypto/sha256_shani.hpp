// Shared by the two SHA-256 kernel files only: sha256.cpp defines the round
// constants and dispatches, sha256_shani.cpp defines the SHA-NI kernel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bscrypto::detail {

/// The round constants K (FIPS 180-4 §4.2.2).
extern const std::uint32_t kRoundConstants[64];

/// The SHA-NI kernel. Defined only in x86-64 builds, and safe to call only
/// where the CPU has the SHA extensions; reach it through ShaniKernel().
void TransformShani(std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);

}  // namespace bscrypto::detail
