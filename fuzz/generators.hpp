// Seeded builders of structurally valid base inputs, one per harness.
//
// Structure-aware fuzzing works by corrupting inputs that are *almost*
// right: a frame with a correct checksum and one flipped length byte probes
// much deeper than random noise, which the first magic/CRC gate rejects.
// These generators produce the "right" part — valid frames, journals,
// serialized tables, op streams — and mutators.hpp supplies the corruption.
#pragma once

#include "fuzz/fuzz.hpp"
#include "util/rng.hpp"

namespace bsfuzz {

/// A stream of 1-4 fully valid encoded protocol frames (random types drawn
/// from the whole 26-type catalogue, random but bounded field contents).
bsutil::ByteVec CodecBase(bsutil::Rng& rng);

/// A tracker op stream (see harness.cpp for the opcode grammar). Every byte
/// string is a valid op stream, so this just emits random bytes with a bias
/// toward op boundaries.
bsutil::ByteVec TrackerBase(bsutil::Rng& rng);

/// A valid journal frame region: a few transactions of CRC-framed records,
/// each closed by a commit marker, with an optional uncommitted tail.
bsutil::ByteVec StoreBase(bsutil::Rng& rng);

/// A valid serialized AddrMan table with a random number of endpoints.
bsutil::ByteVec AddrManBase(bsutil::Rng& rng);

/// Random bytes of 1-1,024 bytes, half of them at a SHA-256 padding edge.
bsutil::ByteVec Sha256Base(bsutil::Rng& rng);

/// Dispatch by harness name ("codec", "tracker", "store", "addrman", "sha256").
bsutil::ByteVec BaseInputFor(const std::string& harness, bsutil::Rng& rng);

}  // namespace bsfuzz
