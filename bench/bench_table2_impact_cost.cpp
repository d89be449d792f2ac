// Table II reproduction: impact-cost ratio per message type.
//
// The paper measures, on Bitcoin Core 0.20.0, the attacker's CPU cost to
// craft each message type and the victim's CPU cost to process it, then
// reports the ratio. We measure the same two quantities on OUR
// implementation (craft = build + serialize + frame; process = decode +
// checksum + type-specific validation/handling work) and print them next to
// the paper's numbers. Absolute values differ (different code, different
// machine); the claim under reproduction is the SHAPE: BLOCK/CMPCTBLOCK/
// BLOCKTXN processing dominates by orders of magnitude, so BLOCK is the
// best flooding payload. google-benchmark micro-benchmarks for the key
// payloads run afterwards for rigor.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "attack/crafter.hpp"
#include "bench_util.hpp"
#include "chain/chainstate.hpp"
#include "chain/mempool.hpp"
#include "core/costmodel.hpp"
#include "core/node.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "proto/codec.hpp"
#include "proto/compact.hpp"
#include "scenario/attack_worlds.hpp"
#include "util/rng.hpp"

namespace {

using namespace bsproto;  // NOLINT
using bsattack::Crafter;
using bsutil::ByteVec;

const bschain::ChainParams kParams{};
const std::uint32_t kMagic = kParams.magic;

/// Per-type sample payloads comparable to the paper's "default" messages.
struct Sample {
  std::function<Message()> craft;                 // attacker-side construction
  std::function<void(const Message&)> process;    // victim-side app processing
};

bscrypto::Hash256 RandHash(bsutil::Rng& rng) {
  bscrypto::Hash256 h;
  for (int i = 0; i < 32; ++i) h.Data()[i] = static_cast<std::uint8_t>(rng.Next());
  return h;
}

/// A realistic 250-tx block for the BLOCK/CMPCTBLOCK/BLOCKTXN rows.
bschain::Block MakeBigBlock() {
  Crafter crafter(kParams, 11);
  bsutil::Rng rng(13);
  std::vector<bschain::Transaction> txs;
  for (int i = 0; i < 250; ++i) txs.push_back(crafter.ValidTx().tx);
  bschain::Block tmpl = bschain::BuildBlockTemplate(kParams.GenesisBlock().Hash(),
                                                    1'600'000'900, txs, kParams, 500);
  return *bschain::MineBlock(std::move(tmpl), kParams);
}

std::map<MsgType, Sample> BuildSamples() {
  // Shared state captured by the lambdas; long-lived for the whole run.
  static bsutil::Rng rng(101);
  static Crafter crafter(kParams, 103);
  static const bschain::Block big_block = MakeBigBlock();
  static const CmpctBlockMsg compact = BuildCompactBlock(big_block, 777);
  static bschain::ChainState chain(kParams);
  static bschain::Mempool mempool;
  static std::uint64_t nonce = 1;

  std::map<MsgType, Sample> samples;

  samples[MsgType::kVersion] = {
      []() { return Message{VersionMsg{}}; },
      [](const Message&) { /* handshake bookkeeping only */ }};
  samples[MsgType::kVerack] = {[]() { return Message{VerackMsg{}}; },
                               [](const Message&) {}};
  samples[MsgType::kAddr] = {
      []() {
        AddrMsg m;
        m.addresses.resize(1000);  // a full ADDR, as nodes send after GETADDR
        for (std::size_t i = 0; i < m.addresses.size(); ++i) {
          m.addresses[i].addr.endpoint = {static_cast<std::uint32_t>(i), 8333};
        }
        return Message{m};
      },
      [](const Message&) {}};
  samples[MsgType::kInv] = {
      []() {
        InvMsg m;
        m.inventory.resize(1000);
        for (auto& item : m.inventory) {
          item.type = InvType::kTx;
          item.hash = RandHash(rng);
        }
        return Message{m};
      },
      [](const Message& m) {
        // Victim checks each hash against its mempool.
        for (const auto& item : std::get<InvMsg>(m).inventory) {
          benchmark::DoNotOptimize(mempool.Contains(item.hash));
        }
      }};
  samples[MsgType::kGetData] = {
      []() {
        GetDataMsg m;
        m.inventory.resize(1000);
        for (auto& item : m.inventory) {
          item.type = InvType::kTx;
          item.hash = RandHash(rng);
        }
        return Message{m};
      },
      [](const Message& m) {
        for (const auto& item : std::get<GetDataMsg>(m).inventory) {
          benchmark::DoNotOptimize(mempool.Get(item.hash));
        }
      }};
  samples[MsgType::kGetHeaders] = {
      []() {
        GetHeadersMsg m;
        m.locator.push_back(RandHash(rng));
        return Message{m};
      },
      [](const Message& m) {
        benchmark::DoNotOptimize(
            chain.HeadersAfter(std::get<GetHeadersMsg>(m).locator[0], 2000));
      }};
  samples[MsgType::kTx] = {
      []() { return Message{crafter.ValidTx()}; },
      [](const Message& m) {
        benchmark::DoNotOptimize(
            bschain::CheckTransaction(std::get<TxMsg>(m).tx));
        benchmark::DoNotOptimize(std::get<TxMsg>(m).tx.Txid());
      }};
  samples[MsgType::kHeaders] = {
      []() {
        HeadersMsg m;
        bschain::BlockHeader h;
        h.prev = RandHash(rng);
        h.bits = kParams.target_bits;
        m.headers.push_back(h);
        return Message{m};
      },
      [](const Message& m) {
        benchmark::DoNotOptimize(std::get<HeadersMsg>(m).headers[0].Hash());
      }};
  samples[MsgType::kBlock] = {
      // The attacker replays a prebuilt block buffer: craft cost is a copy.
      []() { return Message{BlockMsg{big_block}}; },
      [](const Message& m) {
        // Full context-free validation: PoW, merkle, 251 tx checks.
        benchmark::DoNotOptimize(bschain::CheckBlock(std::get<BlockMsg>(m).block,
                                                     kParams));
      }};
  samples[MsgType::kPing] = {
      []() { return Message{PingMsg{nonce++}}; },
      [](const Message& m) {
        // Victim crafts and serializes the PONG reply.
        benchmark::DoNotOptimize(
            SerializePayload(Message{PongMsg{std::get<PingMsg>(m).nonce}}));
      }};
  samples[MsgType::kPong] = {[]() { return Message{PongMsg{nonce++}}; },
                             [](const Message&) {}};
  samples[MsgType::kNotFound] = {
      []() {
        NotFoundMsg m;
        m.inventory.push_back({InvType::kTx, RandHash(rng)});
        return Message{m};
      },
      [](const Message&) {}};
  samples[MsgType::kSendHeaders] = {[]() { return Message{SendHeadersMsg{}}; },
                                    [](const Message&) {}};
  samples[MsgType::kFeeFilter] = {[]() { return Message{FeeFilterMsg{1000}}; },
                                  [](const Message&) {}};
  samples[MsgType::kSendCmpct] = {[]() { return Message{SendCmpctMsg{false, 1}}; },
                                  [](const Message&) {}};
  samples[MsgType::kCmpctBlock] = {
      []() { return Message{compact}; },
      [](const Message& m) {
        const auto& msg = std::get<CmpctBlockMsg>(m);
        benchmark::DoNotOptimize(CheckCompactBlock(msg));
        std::vector<std::uint64_t> missing;
        benchmark::DoNotOptimize(
            ReconstructBlock(msg, mempool.CollectForBlock(mempool.Size()), &missing));
      }};
  samples[MsgType::kGetBlockTxn] = {
      []() {
        GetBlockTxnMsg m;
        m.block_hash = big_block.Hash();
        for (std::uint64_t i = 1; i < 60; ++i) m.indexes.push_back(i);
        return Message{m};
      },
      [](const Message& m) {
        const auto& msg = std::get<GetBlockTxnMsg>(m);
        BlockTxnMsg reply;
        for (std::uint64_t idx : msg.indexes) {
          reply.txs.push_back(big_block.txs[static_cast<std::size_t>(idx)]);
        }
        benchmark::DoNotOptimize(SerializePayload(Message{reply}));
      }};
  samples[MsgType::kBlockTxn] = {
      []() {
        BlockTxnMsg m;
        m.block_hash = big_block.Hash();
        for (std::size_t i = 1; i < big_block.txs.size(); ++i) {
          m.txs.push_back(big_block.txs[i]);
        }
        return Message{m};
      },
      [](const Message& m) {
        // Victim re-validates every delivered transaction and reconstructs.
        for (const auto& tx : std::get<BlockTxnMsg>(m).txs) {
          benchmark::DoNotOptimize(bschain::CheckTransaction(tx));
          benchmark::DoNotOptimize(tx.Txid());
        }
      }};
  return samples;
}

struct Row {
  std::string name;
  double craft_ns;
  bsbench::CallTiming process;
  std::optional<double> paper_craft;
  std::optional<double> paper_impact;
};

void RunTable(bsbench::JsonReport& report) {
  auto samples = BuildSamples();
  std::vector<Row> rows;

  for (auto& [type, sample] : samples) {
    // Craft: the attacker-side per-query cost. The paper's attacker (like
    // our BmDosAttack) pre-crafts the data-heavy payloads once and replays
    // the frame on every query — which is why Table II's BLOCK craft cost is
    // 23 clocks while its processing cost is 617k. Small control messages
    // are built fresh per query.
    const bool replayed = type == MsgType::kBlock || type == MsgType::kBlockTxn ||
                          type == MsgType::kCmpctBlock;
    double craft_ns;
    if (replayed) {
      // Replay cost: re-stamp the 24-byte frame header of the cached buffer
      // and hand it to the send path (no payload work).
      ByteVec cached = EncodeMessage(kMagic, sample.craft());
      ByteVec header(cached.begin(), cached.begin() + bsproto::kHeaderSize);
      craft_ns = bsbench::TimeNsPerCall([&]() {
        std::copy(header.begin(), header.end(), cached.begin());
        benchmark::DoNotOptimize(cached.data());
      }, 1000);
    } else {
      craft_ns = bsbench::TimeNsPerCall([&]() {
        const Message msg = sample.craft();
        benchmark::DoNotOptimize(EncodeMessage(kMagic, msg));
      }, 200);
    }

    // Pre-encode once; the victim cost is decode + checksum + processing.
    const Message msg = sample.craft();
    const ByteVec frame = EncodeMessage(kMagic, msg);
    const bsbench::CallTiming process = bsbench::TimeNsPerCallStats([&]() {
      const DecodeResult result = DecodeMessage(kMagic, frame);
      sample.process(result.message);
    }, replayed ? 20 : 200);

    Row row;
    row.name = CommandName(type);
    row.craft_ns = craft_ns;
    row.process = process;
    row.paper_craft = bsnet::AttackerCraftCycles(type);
    row.paper_impact = bsnet::VictimProcessCycles(type);
    rows.push_back(row);
  }

  bsbench::PrintSection("Table II — measured on THIS implementation vs paper (clocks)");
  std::printf("%-12s | %12s | %12s | %12s | %12s | %10s || %12s | %10s\n", "Message",
              "craft (ns)", "proc min", "proc p50", "proc p90", "ratio",
              "paper impact", "paper r.");
  bsbench::PrintRule(' ', 0);
  bsbench::PrintRule();
  // Print in the paper's row order where possible.
  const std::vector<MsgType> paper_order = {
      MsgType::kVersion, MsgType::kVerack, MsgType::kAddr, MsgType::kInv,
      MsgType::kGetData, MsgType::kGetHeaders, MsgType::kTx, MsgType::kHeaders,
      MsgType::kBlock, MsgType::kPing, MsgType::kPong, MsgType::kNotFound,
      MsgType::kSendHeaders, MsgType::kFeeFilter, MsgType::kSendCmpct,
      MsgType::kCmpctBlock, MsgType::kGetBlockTxn, MsgType::kBlockTxn};
  for (MsgType type : paper_order) {
    const auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
      return r.name == CommandName(type);
    });
    if (it == rows.end()) continue;
    std::printf("%-12s | %12.1f | %12.1f | %12.1f | %12.1f | %10.3f || %12.3f | %10.4f\n",
                it->name.c_str(), it->craft_ns, it->process.min_ns, it->process.p50_ns,
                it->process.p90_ns, it->process.p50_ns / it->craft_ns,
                *it->paper_impact, *it->paper_impact / *it->paper_craft);
    report.Add("process_" + it->name, it->process);
  }

  // Shape check: which message gives the attacker the best ratio?
  auto best = std::max_element(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.process.p50_ns / a.craft_ns < b.process.p50_ns / b.craft_ns;
  });
  std::printf("\nhighest measured impact-cost ratio: %s (%.1f)\n", best->name.c_str(),
              best->process.p50_ns / best->craft_ns);
  std::printf("paper's highest: BLOCK (26323.33), then BLOCKTXN (5849.07)\n");
  report.Add("best_ratio_message", best->name);
  report.Add("best_ratio", best->process.p50_ns / best->craft_ns);

  // Footnote: the bogus BLOCK (wrong checksum) still costs the victim the
  // checksum hash over the payload while costing the attacker a buffer copy.
  bsbench::PrintSection("Footnote — bogus BLOCK (invalid PoW + wrong checksum)");
  Crafter crafter(kParams, 107);
  ByteVec bogus = crafter.BogusBlockFrame(kMagic, 60'000);
  const ByteVec bogus_header(bogus.begin(), bogus.begin() + bsproto::kHeaderSize);
  const double bogus_craft_ns = bsbench::TimeNsPerCall([&]() {
    // Replayed, like the BLOCK row: re-stamp the header, hand the buffer off.
    std::copy(bogus_header.begin(), bogus_header.end(), bogus.begin());
    benchmark::DoNotOptimize(bogus.data());
  }, 1000);
  const double bogus_process_ns = bsbench::TimeNsPerCall([&]() {
    benchmark::DoNotOptimize(DecodeMessage(kMagic, bogus));  // checksum, then drop
  }, 50);
  std::printf("bogus BLOCK: craft %.1f ns, victim %.1f ns, ratio %.1f "
              "(paper footnote: 2132.79)\n",
              bogus_craft_ns, bogus_process_ns, bogus_process_ns / bogus_craft_ns);
  report.Add("bogus_block_ratio", bogus_process_ns / bogus_craft_ns);
}

// ---------------------------------------------------------------------------
// Node-pipeline section: the same payloads driven through a live victim Node
// so the bsobs metrics (frame drop counters) and the profiler's per-frame
// processing stage reflect end-to-end pipeline cost, not just decode cost.

void RunNodePipeline(bsobs::MetricsRegistry& registry, bsbench::JsonReport& report) {
  bsbench::PrintSection("Node pipeline — BM-DoS payloads vs a live victim (bsobs view)");

  bsobs::HotpathProfiler profiler;
  bsscenario::BmDosSpec spec;
  spec.metrics = &registry;  // shared, scrapeable registry for the report
  spec.profiler = &profiler;
  bsscenario::BmDosWorld world(spec);
  for (const auto payload : {bsattack::BmDosConfig::Payload::kBogusBlock,
                             bsattack::BmDosConfig::Payload::kPing,
                             bsattack::BmDosConfig::Payload::kUnknownCommand}) {
    bsattack::BmDosConfig flood;
    flood.payload = payload;
    world.StartFlood(flood);
    world.RunFor(5.0);
    world.StopFlood();
  }
  bsnet::Node& victim = *world.target;

  std::printf("frames dropped (bad checksum):   %llu\n",
              static_cast<unsigned long long>(victim.FramesDroppedBadChecksum()));
  std::printf("frames ignored (unknown cmd):    %llu\n",
              static_cast<unsigned long long>(victim.FramesIgnoredUnknownCommand()));
  std::printf("typed messages processed:        %llu\n",
              static_cast<unsigned long long>(victim.TotalMessagesReceived()));
  const bsobs::StageStats frame_stage = profiler.Stats(bsobs::HotStage::kFrameProcess);
  if (frame_stage.count > 0) {
    std::printf("frame-processing latency:        %llu samples, mean %.1f ns\n",
                static_cast<unsigned long long>(frame_stage.count), frame_stage.ns_per_op);
  }
  std::printf("trace tail:\n%s", victim.Trace().Render(4).c_str());

  report.Add("pipeline_frames_bad_checksum", victim.FramesDroppedBadChecksum());
  report.Add("pipeline_frames_unknown", victim.FramesIgnoredUnknownCommand());
  report.Add("pipeline_messages", victim.TotalMessagesReceived());
}

// ---------------------------------------------------------------------------
// google-benchmark registrations for the headline payloads

void BM_CraftPing(benchmark::State& state) {
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeMessage(kMagic, Message{PingMsg{nonce++}}));
  }
}
BENCHMARK(BM_CraftPing);

void BM_ProcessPing(benchmark::State& state) {
  const ByteVec frame = EncodeMessage(kMagic, Message{PingMsg{1}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeMessage(kMagic, frame));
  }
}
BENCHMARK(BM_ProcessPing);

void BM_ProcessBlock(benchmark::State& state) {
  static const bschain::Block block = MakeBigBlock();
  const ByteVec frame = EncodeMessage(kMagic, Message{BlockMsg{block}});
  for (auto _ : state) {
    const DecodeResult result = DecodeMessage(kMagic, frame);
    benchmark::DoNotOptimize(
        bschain::CheckBlock(std::get<BlockMsg>(result.message).block, kParams));
  }
}
BENCHMARK(BM_ProcessBlock);

void BM_ProcessBogusBlockFrame(benchmark::State& state) {
  Crafter crafter(kParams, 109);
  const ByteVec frame = crafter.BogusBlockFrame(kMagic, 60'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeMessage(kMagic, frame));
  }
}
BENCHMARK(BM_ProcessBogusBlockFrame);

// Observability overhead: the cost an instrumented hot path pays per event.
// The acceptance bar for the pre-resolved-handle design is a few ns per
// counter increment (one relaxed fetch_add, no map lookup).
void BM_ObsCounterInc(benchmark::State& state) {
  bsobs::MetricsRegistry registry;
  bsobs::Counter* counter = registry.GetCounter("bs_bench_counter_total");
  for (auto _ : state) {
    counter->Inc();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  bsobs::MetricsRegistry registry;
  bsobs::Histogram* hist =
      registry.GetHistogram("bs_bench_seconds", bsobs::LatencyBucketsSeconds());
  double v = 1e-7;
  for (auto _ : state) {
    hist->Observe(v);
    v = v < 0.5 ? v * 1.01 : 1e-7;
  }
  benchmark::DoNotOptimize(hist->Count());
}
BENCHMARK(BM_ObsHistogramObserve);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle("bench_table2_impact_cost — Table II: impact-cost ratio");
  bsbench::JsonReport report("bench_table2_impact_cost");
  report.SetSeed(42);  // NodeConfig default; every node derives from it
  bsobs::MetricsRegistry registry;
  RunTable(report);
  RunNodePipeline(registry, report);
  bsbench::PrintSection("google-benchmark micro-benchmarks (headline payloads + bsobs)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report.AttachRegistry(registry);
  report.WriteTo(json_path);
  return 0;
}
