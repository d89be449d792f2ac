#include "chain/miner.hpp"

#include <time.h>

#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace bschain {

namespace {

/// CPU time this thread has used, in seconds. Wall time would also count
/// time the thread spent descheduled, which is what made the rates noisy.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

Block BuildBlockTemplate(const bscrypto::Hash256& prev, std::uint32_t time,
                         const std::vector<Transaction>& txs, const ChainParams& params,
                         std::uint64_t extra_nonce) {
  Block block;
  Transaction coinbase;
  coinbase.version = 1;
  TxIn in;
  in.prevout = OutPoint{};
  bsutil::Writer script;
  script.WriteU64(extra_nonce);
  script.WriteU32(time);
  in.script_sig = script.TakeData();
  coinbase.inputs.push_back(in);
  TxOut out;
  out.value = 50LL * 100'000'000LL;
  out.script_pubkey = bsutil::ToBytes("miner-output");
  coinbase.outputs.push_back(out);
  block.txs.push_back(coinbase);
  block.txs.insert(block.txs.end(), txs.begin(), txs.end());

  block.header.version = 1;
  block.header.prev = prev;
  block.header.merkle_root = block.ComputeMerkleRoot();
  block.header.time = time;
  block.header.bits = params.target_bits;
  block.header.nonce = 0;
  return block;
}

std::optional<Block> MineBlock(Block block_template, const ChainParams& params,
                               std::uint64_t max_iterations) {
  for (std::uint64_t i = 0; i < max_iterations; ++i) {
    if (CheckProofOfWork(block_template.Hash(), block_template.header.bits, params)) {
      return block_template;
    }
    ++block_template.header.nonce;
  }
  return std::nullopt;
}

double HashRateMeter::Measure(std::uint64_t num_hashes,
                              const std::function<void()>& interference,
                              std::uint64_t interference_stride) {
  // Hash a realistic 80-byte header, bumping the nonce each round just as a
  // miner does.
  BlockHeader header;
  header.time = 1'600'000'000;
  header.bits = 0x207fffff;

  bsutil::Writer w;
  header.Serialize(w);
  bsutil::ByteVec buf = w.TakeData();

  const double start = ThreadCpuSeconds();
  volatile std::uint8_t sink = 0;
  for (std::uint64_t i = 0; i < num_hashes; ++i) {
    // Nonce lives in the last 4 bytes of the header serialization.
    buf[76] = static_cast<std::uint8_t>(i);
    buf[77] = static_cast<std::uint8_t>(i >> 8);
    buf[78] = static_cast<std::uint8_t>(i >> 16);
    buf[79] = static_cast<std::uint8_t>(i >> 24);
    const auto digest = bscrypto::Sha256::HashD(buf);
    sink = sink ^ digest[0];
    if (interference && interference_stride != 0 && (i + 1) % interference_stride == 0) {
      interference();
    }
  }
  const double seconds = ThreadCpuSeconds() - start;
  (void)sink;
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(num_hashes) / seconds;
}

}  // namespace bschain
