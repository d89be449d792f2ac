// Table III + Fig. 7 reproduction: application-layer BM-DoS (Bitcoin PING)
// vs network-layer traffic flooding (ICMP ping), sweeping the flood rate.
//
// Columns, as in the paper: attacker CPU% and memory, victim bandwidth
// consumed by the flood (kbit/s), and victim mining rate. The BM-DoS rate is
// capped at 1e3 msg/s (the attacker pipeline ceiling the paper observed);
// ICMP reaches 1e6 pkt/s.
//
//   paper: PING 1e2 -> 824564 h/s, 1e3 -> 518954 h/s
//          ICMP 1e2 -> 919620, 1e3 -> 841188, 1e4 -> 639357,
//               1e5 -> 505639, 1e6 -> 359116  (h/s)
#include <cstdio>

#include "attack/icmpflood.hpp"
#include "bench_util.hpp"
#include "core/costmodel.hpp"
#include "scenario/attack_worlds.hpp"

namespace {

using bsscenario::BmDosWorld;

constexpr double kMeasureSeconds = 20.0;

// Shared registry: every flood run's victim feeds the same bsobs series so
// the --json report shows the cumulative pipeline picture.
bsobs::MetricsRegistry g_metrics;

struct Result {
  double attacker_cpu_percent;
  double attacker_mem_mb;
  double bandwidth_kbits;
  double mining_rate_hps;
};

Result RunFlood(bool bitcoin_ping, double rate) {
  bsscenario::BmDosSpec spec;
  spec.cpu.emplace();
  spec.metrics = &g_metrics;
  spec.flood.payload = bsattack::BmDosConfig::Payload::kPing;
  spec.flood.rate_msgs_per_sec = rate;
  // The ICMP flood opens no sessions.
  if (!bitcoin_ping) spec.flood.sybil_connections = 0;
  BmDosWorld world(spec);
  bsattack::IcmpFloodConfig ic;
  ic.rate_pkts_per_sec = rate;
  bsattack::IcmpFlooder icmp(*world.attacker, BmDosWorld::kTargetIp, ic);
  if (bitcoin_ping) {
    world.StartFlood();
  } else {
    icmp.Start();
  }

  world.RunFor(2);
  world.net.ResetByteCounters();
  const bsim::MiningSample sample = world.MiningWindow(kMeasureSeconds);

  Result result;
  result.mining_rate_hps = sample.mining_rate_hps;
  result.bandwidth_kbits =
      static_cast<double>(world.net.BytesDeliveredTo(BmDosWorld::kTargetIp)) * 8.0 /
      1000.0 / kMeasureSeconds;
  if (bitcoin_ping) {
    result.attacker_cpu_percent = bsnet::PythonAttackerCpuPercent(
        std::min(rate, bsnet::kBmDosPipelineCapMsgsPerSec));
    result.attacker_mem_mb = bsnet::kPythonAttackerMemMb;
  } else {
    result.attacker_cpu_percent = bsnet::HpingAttackerCpuPercent(rate);
    result.attacker_mem_mb = bsnet::kHpingAttackerMemMb;
  }
  return result;
}

void PrintRow(const char* layer, double rate, const Result& r, double paper_hps) {
  std::printf("%-14s | %8.0e | %8.1f | %9.3f | %12.2f | %12.0f | %10.0f\n", layer, rate,
              r.attacker_cpu_percent, r.attacker_mem_mb, r.bandwidth_kbits,
              r.mining_rate_hps, paper_hps);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle(
      "bench_table3_flood_compare — Table III / Fig. 7: BM-DoS vs network-layer flood");
  std::printf("%-14s | %8s | %8s | %9s | %12s | %12s | %10s\n", "layer", "rate/s",
              "CPU (%)", "MEM (MB)", "BW (kbit/s)", "mining (h/s)", "paper h/s");
  bsbench::PrintRule(' ', 0);
  bsbench::PrintRule();

  PrintRow("Bitcoin PING", 1e2, RunFlood(true, 1e2), 824564.81);
  PrintRow("Bitcoin PING", 1e3, RunFlood(true, 1e3), 518954.34);
  std::printf("%-14s   (rates beyond 1e3/s break the attacker pipeline, §VI-C)\n", "");
  PrintRow("ICMP ping", 1e2, RunFlood(false, 1e2), 919619.71);
  PrintRow("ICMP ping", 1e3, RunFlood(false, 1e3), 841188.46);
  PrintRow("ICMP ping", 1e4, RunFlood(false, 1e4), 639356.67);
  PrintRow("ICMP ping", 1e5, RunFlood(false, 1e5), 505638.85);
  PrintRow("ICMP ping", 1e6, RunFlood(false, 1e6), 359115.99);

  bsbench::PrintSection("Fig. 7 series — mining-rate impact at the same rate");
  const Result ping_1e3 = RunFlood(true, 1e3);
  const Result icmp_1e3 = RunFlood(false, 1e3);
  std::printf("at 1e3/s: BM-DoS mining %.0f h/s vs ICMP mining %.0f h/s\n",
              ping_1e3.mining_rate_hps, icmp_1e3.mining_rate_hps);
  std::printf("BM-DoS hurts mining more at equal rate:  %s  (paper: yes — the PING\n"
              "reaches the application layer; ICMP stays in the kernel)\n",
              ping_1e3.mining_rate_hps < icmp_1e3.mining_rate_hps ? "yes" : "NO");
  std::printf("ICMP consumes more bandwidth at 1e6/s than BM-DoS at its cap:  %s\n",
              RunFlood(false, 1e6).bandwidth_kbits > ping_1e3.bandwidth_kbits ? "yes"
                                                                              : "NO");

  bsbench::JsonReport report("bench_table3_flood_compare");
  report.SetSeed(42);  // NodeConfig default; every node derives from it
  report.Add("ping_1e3_mining_hps", ping_1e3.mining_rate_hps);
  report.Add("icmp_1e3_mining_hps", icmp_1e3.mining_rate_hps);
  report.Add("ping_1e3_bandwidth_kbits", ping_1e3.bandwidth_kbits);
  report.AttachRegistry(g_metrics);
  report.WriteTo(json_path);
  return 0;
}
