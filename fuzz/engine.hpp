// The in-repo fuzz engine: deterministic, seeded, dependency-free.
//
// One campaign = one (harness, seed) pair. Per iteration the engine derives
// an iteration-local RNG, builds a valid base input (generators.hpp),
// stacks 0-4 mutations on it (mutators.hpp), and feeds the result to the
// harness. A failure is minimized (minimize.hpp) while pinning the violated
// oracle, then written as a self-describing repro artifact whose header
// comment carries the seed, iteration, oracle, and full mutation trace.
//
// Before the mutation loop the campaign replays every committed corpus file
// for its harness, so past regressions gate every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"

namespace bsfuzz {

struct CampaignConfig {
  std::string harness;        // "codec" | "tracker" | "store" | "addrman" | "sha256"
  std::uint64_t seed = 1;
  std::size_t iters = 1000;
  std::string corpus_dir;     // per-harness subdir appended; "" = skip replay
  std::string artifacts_dir;  // where minimized repros land; "" = don't write
};

struct FuzzFailure {
  std::string harness;
  std::uint64_t seed = 0;
  std::size_t iter = 0;            // SIZE_MAX for corpus replays
  std::string source;              // "generated" or the corpus file name
  std::string oracle;
  std::string detail;
  std::vector<std::string> trace;  // mutation steps that built the input
  bsutil::ByteVec input;           // minimized
  std::string artifact_path;       // written repro, "" when not written
};

struct CampaignResult {
  std::size_t iterations = 0;
  std::size_t corpus_inputs = 0;
  std::vector<FuzzFailure> failures;
};

CampaignResult RunCampaign(const CampaignConfig& config);

/// Parse a repro/corpus file: '#' comment lines, then hex payload lines.
/// Returns false when the file cannot be read.
bool ReadReproFile(const std::string& path, bsutil::ByteVec& out);

/// Write `input` as a repro file with a provenance header.
/// Returns the written path ("" on error).
std::string WriteReproFile(const std::string& dir, const FuzzFailure& failure);

/// Regenerate a small seed corpus for `harness` into `dir` (used by
/// `banscore-lab fuzz --reseed`): a handful of unmutated generator outputs
/// plus lightly mutated variants, all named deterministically.
std::size_t ReseedCorpus(const std::string& harness, const std::string& dir,
                         std::uint64_t seed, std::size_t count);

}  // namespace bsfuzz
