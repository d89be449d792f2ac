// Eclipse resilience: the peer-set self-healing headline plot.
//
// The paper's framing (§II): the ban-score framework "was informed for
// responding to other potential attacks, e.g., Eclipse" — and the attack
// module shows the composition that defeats it anyway (Sybil inbound
// occupation + ADDR poisoning + post-connection Defamation of every honest
// outbound). This bench measures what the eclipse-resilience layer buys:
//
//   * stock   — the 0.20.0-faithful node. The sustained attack owns every
//               inbound slot, bans every honest outbound via Defamation, and
//               the flat address table refills outbound from attacker
//               infrastructure: the control fraction pins near 1.0 and stays
//               there, even when honest peers later try to dial in.
//   * hardened — bucketed tried/new AddrMan + outbound /16 diversity +
//               feelers + anchors + stale-tip recovery, composed with the
//               earlier hardening layers (inbound eviction, idle-session
//               reaping). The same attack peaks, then honest dial-ins evict
//               Sybils, silent Sybil sessions age out while honest peers
//               keep relaying, diversity caps attacker outbound at one slot,
//               and the control fraction falls back under 0.5.
//   * hardened+restart — same defenses plus the durable store: the victim
//               crashes mid-attack and the reborn node re-dials its anchors
//               (persisted block-providing peers) before consulting the
//               poisoned table at all.
//
// Reported per phase: control-fraction-over-time (1 s samples), peak and
// final fraction, time-to-heal from attack start, and the defense counters
// (feeler probes/promotions, anchor redials, stale-tip events). The world is
// bsscenario::EclipseWorld (src/scenario/), shared with `banscore-lab
// eclipse` and the ChaosEclipseHeal test.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "scenario/eclipse_world.hpp"

namespace {

using bsscenario::EclipseWorld;

constexpr int kInfraNodes = 8;  // attacker full nodes, one /16
constexpr int kRunSeconds = 90;
constexpr int kAttackStopSeconds = 60;
constexpr int kDialInSeconds = 50;
constexpr double kHealThreshold = 0.5;

enum class Phase { kStock, kHardened, kHardenedRestart };

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kStock: return "stock";
    case Phase::kHardened: return "hardened";
    case Phase::kHardenedRestart: return "hardened+restart";
  }
  return "?";
}

struct PhaseResult : bsscenario::EclipseOutcome {
  std::uint64_t feeler_attempts = 0;
  std::uint64_t feeler_promotions = 0;
  std::uint64_t anchor_redials = 0;
  std::uint64_t stale_tip_events = 0;
  std::size_t tried = 0;
  std::size_t new_entries = 0;
  int victim_height = 0;
  int miner_height = 0;
};

PhaseResult RunPhase(Phase phase) {
  bsscenario::EclipseSpec spec;
  spec.hardened = phase != Phase::kStock;
  spec.run_seconds = kRunSeconds;
  spec.attack_stop_seconds = kAttackStopSeconds;
  spec.dial_in_seconds = kDialInSeconds;
  spec.infra_nodes = kInfraNodes;
  spec.heal_fraction = kHealThreshold;
  // The restart phase crashes the victim mid-attack; the reborn node
  // re-dials its anchors (persisted block-providing peers) before consulting
  // the poisoned table at all.
  spec.crash_restart = phase == Phase::kHardenedRestart;
  EclipseWorld world(spec);

  PhaseResult result{world.Run()};
  bsnet::Node& victim = *world.Victim();
  result.feeler_attempts = victim.FeelerAttempts();
  result.feeler_promotions = victim.FeelerPromotions();
  result.anchor_redials = victim.AnchorRedials();
  result.stale_tip_events = victim.StaleTipEvents();
  result.tried = victim.Addrs().TriedCount();
  result.new_entries = victim.Addrs().NewCount();
  result.victim_height = victim.Chain().TipHeight();
  result.miner_height = world.Miner().Chain().TipHeight();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle(
      "bench_eclipse_resilience — sustained eclipse vs peer-set self-healing");
  std::printf(
      "victim: %d inbound / %d outbound slots, 60 s bans; %d honest peers in\n"
      "distinct /16s (dial in from t=%ds); attacker: %d Sybil inbound sessions\n"
      "(re-occupied), ADDR poisoning every 2 s, one Defamation eviction per\n"
      "2.5 s, %d infrastructure nodes in one /16; %d s run, attack t=%d..%ds\n",
      EclipseWorld::kMaxInbound, EclipseWorld::kTargetOutbound,
      EclipseWorld::kHonestPeers, kDialInSeconds, EclipseWorld::kMaxInbound,
      kInfraNodes, kRunSeconds, EclipseWorld::kAttackStartSeconds,
      kAttackStopSeconds);

  bsbench::JsonReport report("bench_eclipse_resilience");
  report.SetSeed(42);  // NodeConfig default; every node derives from it

  bsbench::PrintSection("control fraction by phase");
  std::printf("%-17s | %5s | %6s | %8s | %7s | %7s | %7s | %6s | %9s\n", "phase",
              "peak", "final", "heal-s", "feelers", "promos", "anchors", "stale",
              "tried/new");
  bsbench::PrintRule();

  std::vector<std::pair<Phase, PhaseResult>> results;
  for (const Phase phase :
       {Phase::kStock, Phase::kHardened, Phase::kHardenedRestart}) {
    const PhaseResult r = RunPhase(phase);
    std::printf("%-17s | %5.2f | %6.2f | %8s | %7llu | %7llu | %7llu | %6llu | %4zu/%-4zu\n",
                PhaseName(phase), r.peak, r.final_fraction,
                r.heal_seconds < 0 ? "never"
                                   : std::to_string(static_cast<int>(r.heal_seconds)).c_str(),
                static_cast<unsigned long long>(r.feeler_attempts),
                static_cast<unsigned long long>(r.feeler_promotions),
                static_cast<unsigned long long>(r.anchor_redials),
                static_cast<unsigned long long>(r.stale_tip_events), r.tried,
                r.new_entries);
    const std::string key = PhaseName(phase);
    report.Add("peak_" + key, r.peak);
    report.Add("final_" + key, r.final_fraction);
    report.Add("heal_seconds_" + key, r.heal_seconds);
    report.Add("feeler_attempts_" + key, r.feeler_attempts);
    report.Add("feeler_promotions_" + key, r.feeler_promotions);
    report.Add("anchor_redials_" + key, r.anchor_redials);
    report.Add("stale_tip_events_" + key, r.stale_tip_events);
    report.Add("attacker_outbound_final_" + key, r.attacker_outbound);
    report.Add("honest_inbound_final_" + key,
               static_cast<std::uint64_t>(r.honest_inbound));
    report.Add("victim_height_" + key, r.victim_height);
    report.Add("miner_height_" + key, r.miner_height);
    report.AddRaw("series_" + key, bsbench::SeriesJson(r.series));
    results.emplace_back(phase, r);
  }

  const auto find = [&](Phase phase) -> const PhaseResult& {
    for (const auto& [p, r] : results) {
      if (p == phase) return r;
    }
    return results.front().second;
  };
  const PhaseResult& stock = find(Phase::kStock);
  const PhaseResult& hard = find(Phase::kHardened);
  const PhaseResult& restart = find(Phase::kHardenedRestart);

  bsbench::PrintSection("shape checks (the acceptance criteria)");
  std::printf("attack fully bites the stock node (peak >= 0.9):      %s (%.2f)\n",
              stock.peak >= 0.9 ? "yes" : "NO", stock.peak);
  std::printf("stock stays eclipsed (final >= 0.75):                 %s (%.2f)\n",
              stock.final_fraction >= 0.75 ? "yes" : "NO", stock.final_fraction);
  std::printf("hardened heals under sustained attack (final < 0.5):  %s (%.2f)\n",
              hard.final_fraction < kHealThreshold ? "yes" : "NO",
              hard.final_fraction);
  std::printf("hardened time-to-heal is finite:                      %s (%s s)\n",
              hard.heal_seconds >= 0 ? "yes" : "NO",
              hard.heal_seconds < 0
                  ? "never"
                  : std::to_string(static_cast<int>(hard.heal_seconds)).c_str());
  std::printf("outbound diversity holds (<= 1 attacker outbound):    %s (%d)\n",
              hard.attacker_outbound <= 1 ? "yes" : "NO",
              hard.attacker_outbound);
  std::printf("feelers verified addresses (promotions > 0):          %s (%llu)\n",
              hard.feeler_promotions > 0 ? "yes" : "NO",
              static_cast<unsigned long long>(hard.feeler_promotions));
  // The stale-tip backstop only arms when block flow actually stops; in the
  // steady hardened run a few honest links always survive, so the gap that
  // trips it is the crash/restart one.
  std::printf("stale-tip backstop fired in a hardened phase:         %s (%llu)\n",
              hard.stale_tip_events + restart.stale_tip_events >= 1 ? "yes" : "NO",
              static_cast<unsigned long long>(hard.stale_tip_events +
                                              restart.stale_tip_events));
  std::printf("reborn victim re-dialed anchors from durable store:   %s (%llu)\n",
              restart.anchor_redials >= 1 ? "yes" : "NO",
              static_cast<unsigned long long>(restart.anchor_redials));
  std::printf("reborn victim heals too (final < 0.5):                %s (%.2f)\n",
              restart.final_fraction < kHealThreshold ? "yes" : "NO",
              restart.final_fraction);
  report.WriteTo(json_path);
  return 0;
}
