// Shared vocabulary of the in-repo fuzz fabric.
//
// The fabric is deliberately self-contained: a seeded deterministic engine
// (engine.hpp) layers structure-aware mutators (mutators.hpp) on top of
// valid inputs built by generators.hpp, and feeds the result to one of five
// harness bodies (harness.hpp). The same harness bodies back the optional
// libFuzzer entry points (-DBS_LIBFUZZER=ON), so a corpus found by either
// driver reproduces under the other.
//
// A harness is an *oracle*, not a crash detector: it returns a structured
// failure naming the violated robustness property (round-trip idempotence,
// reject-leaves-state-untouched, recover-or-fail-closed) so the minimizer
// can preserve exactly that failure while shrinking.
#pragma once

#include <string>

#include "util/bytes.hpp"

namespace bsfuzz {

/// Network magic used by every fuzz harness (the regtest-style value the
/// test suite uses).
constexpr std::uint32_t kFuzzMagic = 0xfabfb5da;

/// Outcome of running one input through a harness.
struct HarnessResult {
  bool ok = true;
  std::string oracle;  // violated property, e.g. "roundtrip-idempotence"
  std::string detail;  // human-readable specifics

  static HarnessResult Fail(std::string oracle, std::string detail) {
    return HarnessResult{false, std::move(oracle), std::move(detail)};
  }
};

}  // namespace bsfuzz
