// The benchmark's workloads. Each runs one measured pass (or, traced, an
// untraced and a traced pass), checks the program's outputs, and returns
// the result main() prints.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Real loopback sockets: open-loop PING/unknown-command flood plus a
/// timed honest prober against a bsnetd-wired node.
RunResult RunFloodRtt(const Options& opt);
/// Simulator: large wrong-checksum BLOCK frames and invalid-PoW blocks
/// against a victim in an honest mining mesh.
RunResult RunBigframeSim(const Options& opt);
/// Simulator: serial and parallel Sybil identifiers banned and reborn
/// against a victim whose durable store journals every score and ban.
RunResult RunSybilChurnSim(const Options& opt);
/// Runs each simulator workload briefly with and without the decorators
/// and checks that every deterministic count is identical.
RunResult RunPassthroughCheck(const Options& opt);

}  // namespace perfbench
