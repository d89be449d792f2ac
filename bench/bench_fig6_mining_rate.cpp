// Fig. 6 reproduction: BM-DoS impact on the victim's mining rate.
//
// Scenario: a victim node with ~10 Mainnet peer connections mines while an
// attacker floods it as fast as possible (no inter-message delay) with
// either bogus BLOCK messages (invalid PoW + wrong checksum, §III-B) or
// PING messages, over 1, 10 and 20 Sybil connections. The paper reports the
// mean mining rate over 100 samples with 95% confidence intervals:
//
//   paper:  none 9.5e5 | BLOCK 1:3.5e5 10:2.8e5 20:2.6e5
//                       | PING  1:5.5e5 10:4.6e5 20:3.5e5   (h/s)
//
// Mining runs on the calibrated shared-CPU model (see sim/cpu.hpp and
// DESIGN.md); each sample is one simulated second.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "scenario/attack_worlds.hpp"
#include "util/stats.hpp"

namespace {

using bsattack::BmDosConfig;

constexpr int kSamples = 100;  // the paper's 100 mining samples

// One registry shared by every scenario's victim node and scheduler: the
// --json report carries the cumulative bsobs view of the whole run.
bsobs::MetricsRegistry g_metrics;

struct SeriesPoint {
  std::string label;
  double paper_hps;
  bsutil::Summary measured;
};

bsutil::Summary RunScenario(std::optional<BmDosConfig::Payload> payload,
                            int sybil_connections) {
  bsscenario::BmDosSpec spec;
  // Testbed-like measurement jitter so the 95% CI bars are meaningful.
  spec.cpu.emplace();
  spec.cpu->measurement_jitter = 0.015;
  spec.cpu->jitter_seed = 42 + static_cast<std::uint64_t>(sybil_connections);
  spec.metrics = &g_metrics;
  spec.flood.sybil_connections = sybil_connections;
  if (payload) spec.flood.payload = *payload;
  bsscenario::BmDosWorld world(spec);
  if (payload) world.StartFlood();
  world.RunFor(2);  // handshakes + flood warm-up

  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    samples.push_back(world.MiningWindow(1).mining_rate_hps);
  }
  if (payload) world.StopFlood();
  return bsutil::Summarize(samples);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle("bench_fig6_mining_rate — Fig. 6: BM-DoS impacts mining rate");
  std::printf("victim: %d Mainnet connections, flood with no inter-message delay,\n"
              "%d samples of 1 simulated second each (mean with 95%% CI)\n",
              bsscenario::BmDosWorld::kNormalConnections, kSamples);

  std::vector<SeriesPoint> points;
  points.push_back({"no attack", 9.5e5, RunScenario(std::nullopt, 0)});
  points.push_back({"bogus BLOCK, 1 conn", 3.5e5,
                    RunScenario(BmDosConfig::Payload::kBogusBlock, 1)});
  points.push_back({"bogus BLOCK, 10 conns", 2.8e5,
                    RunScenario(BmDosConfig::Payload::kBogusBlock, 10)});
  points.push_back({"bogus BLOCK, 20 conns", 2.6e5,
                    RunScenario(BmDosConfig::Payload::kBogusBlock, 20)});
  points.push_back({"PING, 1 conn", 5.5e5, RunScenario(BmDosConfig::Payload::kPing, 1)});
  points.push_back({"PING, 10 conns", 4.6e5,
                    RunScenario(BmDosConfig::Payload::kPing, 10)});
  points.push_back({"PING, 20 conns", 3.5e5,
                    RunScenario(BmDosConfig::Payload::kPing, 20)});

  bsbench::PrintSection("mining rate (hashes/second)");
  std::printf("%-24s | %12s | %12s | %10s | %8s\n", "scenario", "measured",
              "95% CI +/-", "paper", "meas/pap");
  bsbench::PrintRule();
  for (const auto& p : points) {
    std::printf("%-24s | %12.3g | %12.3g | %10.3g | %8.2f\n", p.label.c_str(),
                p.measured.mean, p.measured.ci95_half_width, p.paper_hps,
                p.measured.mean / p.paper_hps);
  }

  bsbench::PrintSection("shape checks");
  const auto hps = [&](int i) { return points[static_cast<std::size_t>(i)].measured.mean; };
  std::printf("BLOCK flood beats PING flood at every width:  %s\n",
              (hps(1) < hps(4) && hps(2) < hps(5) && hps(3) < hps(6)) ? "yes" : "NO");
  // Tolerate the 1.5% measurement jitter when neighbouring points coincide
  // (our model clamps the 10- and 20-connection BLOCK cases to the same
  // saturated value).
  const auto no_greater = [&](int a, int b) { return hps(a) <= hps(b) * 1.01; };
  std::printf("more Sybil connections => lower mining rate:  %s\n",
              (no_greater(2, 1) && no_greater(3, 2) && hps(5) < hps(4) && hps(6) < hps(5))
                  ? "yes"
                  : "NO");
  std::printf("baseline is the fastest:                      %s\n",
              (hps(0) > hps(4)) ? "yes" : "NO");

  bsbench::JsonReport report("bench_fig6_mining_rate");
  report.SetSeed(42);  // NodeConfig default; every node derives from it
  for (const auto& p : points) {
    report.Add("hps_" + p.label, p.measured.mean);
    report.Add("hps_ci95_" + p.label, p.measured.ci95_half_width);
  }
  report.AttachRegistry(g_metrics);
  report.WriteTo(json_path);
  return 0;
}
