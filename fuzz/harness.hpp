// The five harness bodies. Each consumes one opaque byte string and checks
// robustness oracles, not just absence of crashes:
//
//   codec    — stream-decode; every frame must match the reference decoder
//              (reference_decoder.hpp) in status, consumed bytes, header and
//              message, both contiguously and through a StreamDecoder that
//              reuses one result; every accepted message must round-trip
//              idempotently (encode→decode→encode is byte-stable) and the
//              decoder must always make bounded forward progress.
//   tracker  — interprets the input as an op stream against a
//              MisbehaviorTracker + BanMan pair, cross-checked against an
//              independent shadow model; rejected Deserialize calls must
//              leave serialized state byte-identical.
//   store    — treats the input as a journal frame region in a SimFs store;
//              open must recover or fail closed, agree with fsck, and be
//              idempotent across a second open.
//   addrman  — AddrMan::Deserialize in flat and bucketed mode; rejects
//              must not mutate state, accepts must re-serialize stably.
//   sha256   — the active SHA-256 kernel (SHA-NI where the CPU has it)
//              against the scalar reference: one-shot Hash, HashD against
//              two chained hashes, and the incremental hasher split where
//              the input's bytes say.
//
// The same bodies back the in-repo engine (engine.hpp) and the optional
// libFuzzer entry points, so findings reproduce across drivers.
#pragma once

#include <vector>

#include "fuzz/fuzz.hpp"

namespace bsfuzz {

HarnessResult RunCodecInput(bsutil::ByteSpan input);
HarnessResult RunTrackerInput(bsutil::ByteSpan input);
HarnessResult RunStoreInput(bsutil::ByteSpan input);
HarnessResult RunAddrManInput(bsutil::ByteSpan input);
HarnessResult RunSha256Input(bsutil::ByteSpan input);

/// Dispatch by name; throws std::invalid_argument for unknown names.
HarnessResult RunHarness(const std::string& harness, bsutil::ByteSpan input);

/// The harness names, in canonical order.
const std::vector<std::string>& AllHarnesses();

}  // namespace bsfuzz
