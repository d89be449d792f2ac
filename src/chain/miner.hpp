// Real proof-of-work miner: grinds block-header nonces with double-SHA256.
// Also provides the hash-rate measurement used by the Fig. 6 / Table III
// mining-rate experiments (the paper measures h/s over 1e7-hash samples).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "chain/block.hpp"
#include "chain/pow.hpp"

namespace bschain {

/// Assemble a block on top of `prev` containing a fresh coinbase plus `txs`.
/// `extra_nonce` differentiates coinbases so repeated calls mine distinct
/// blocks.
Block BuildBlockTemplate(const bscrypto::Hash256& prev, std::uint32_t time,
                         const std::vector<Transaction>& txs, const ChainParams& params,
                         std::uint64_t extra_nonce);

/// Grind the nonce until PoW passes or `max_iterations` hashes were spent.
/// Returns the solved block, or nullopt on exhaustion.
std::optional<Block> MineBlock(Block block_template, const ChainParams& params,
                               std::uint64_t max_iterations = 1'000'000);

/// Measures raw double-SHA256 header hashing throughput, mirroring the
/// paper's mining-rate metric ("hash computations per second").
class HashRateMeter {
 public:
  /// Perform `num_hashes` real header hashes; returns hashes per second of
  /// this thread's CPU time. `interference`, when provided, is invoked every
  /// `interference_stride` hashes on the same thread, so callers can model
  /// competing CPU work (the BM-DoS victim).
  double Measure(std::uint64_t num_hashes,
                 const std::function<void()>& interference = nullptr,
                 std::uint64_t interference_stride = 1024);
};

}  // namespace bschain
