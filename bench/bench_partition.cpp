// Routing-partition resilience: the detection + graduated-recovery headline.
//
// The adversary is the Hijacking-Bitcoin routing attacker (arXiv:1605.07524):
// it does not cut links, it *detours* them. Here the victim's side of the
// topology keeps every TCP session alive while all return traffic from the
// mining side crawls through a 45 s detour — blocks still arrive, merely 45 s
// late, so the victim's view is permanently ~15 blocks stale and no
// single-signal heuristic (a dead peer, a closed socket) ever fires.
//
//   * stock    — the 0.20.0-faithful node. Its outbound slots are full of
//                same-side peers, it has no reason to dial beyond them, and
//                it tracks the detoured feed forever: the tip gap never
//                closes within the run.
//   * hardened — enable_partition_resilience. A listen-only witness node
//                with healthy routes keeps answering tip-probes with the
//                true height; the fused suspicion score arms, the recovery
//                ladder walks feeler burst → anchor re-dial → emergency
//                outbound slot, and when the victim's /16 is healed the
//                emergency dial reaches the mining side, header-syncs, and
//                snaps the tip to the global best. Partition-aware damping
//                (plus its divergence header-sync) keeps the reconverged
//                victim's fresh-block relay from marching it to a ban at the
//                still-stale buddies — they reconverge through it instead.
//   * hardened+restart — same, but the victim crashes mid-partition (durable
//                store on) and the reborn process must re-detect and still
//                reconverge on schedule.
//
// Reported per phase: tip-gap-to-miner series (1 s samples), final gap,
// reconverge time from the heal, partition counters, honest-ban census. The
// world is bsscenario::PartitionWorld (src/scenario/), shared with
// `banscore-lab partition` and the ChaosPartition test.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "scenario/partition_world.hpp"

namespace {

using bsscenario::PartitionWorld;

constexpr int kRunSeconds = 90;
constexpr int kHealAtSeconds = kRunSeconds / 2;

enum class Phase { kStock, kHardened, kHardenedRestart };

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kStock: return "stock";
    case Phase::kHardened: return "hardened";
    case Phase::kHardenedRestart: return "hardened+restart";
  }
  return "?";
}

struct PhaseResult : bsscenario::PartitionOutcome {
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_replies = 0;
  std::uint64_t suspect_windows = 0;
  std::uint64_t recovery_actions = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t stale_tip_events = 0;
  std::size_t victim_outbound_final = 0;
  int victim_height = 0;
  int miner_height = 0;
  std::uint64_t routing_partitions = 0;
  std::uint64_t delayed_segments = 0;
  std::uint64_t host_crashes = 0;
};

PhaseResult RunPhase(Phase phase) {
  bsscenario::PartitionSpec spec;
  spec.hardened = phase != Phase::kStock;
  spec.run_seconds = kRunSeconds;
  // The restart phase crashes the victim mid-partition (durable store on);
  // the reborn process must re-detect and still reconverge on schedule.
  spec.crash_restart = phase == Phase::kHardenedRestart;
  PartitionWorld world(spec);

  PhaseResult result{world.Run()};
  if (bsnet::Node* victim = world.Victim()) {
    result.probes_sent = victim->TipProbesSent();
    result.probe_replies = victim->TipProbeReplies();
    result.suspect_windows = victim->PartitionSuspectWindows();
    result.recovery_actions = victim->PartitionRecoveryActions();
    result.recoveries = victim->PartitionRecoveries();
    result.stale_tip_events = victim->StaleTipEvents();
    result.victim_outbound_final = victim->OutboundCount();
    result.victim_height = victim->Chain().TipHeight();
  }
  result.miner_height = world.Miner().Chain().TipHeight();
  result.routing_partitions = world.Plan().RoutingPartitions();
  result.delayed_segments = world.Plan().SegmentsDelayedRouting();
  result.host_crashes = world.Plan().HostCrashes();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle(
      "bench_partition — asymmetric routing detour vs partition resilience");
  std::printf(
      "victim /16 + %d buddy /16s detoured from the mining side (B->A +%d s,\n"
      "A->B clean) at t=%ds; victim's own /16 healed at t=%ds; miner on a %d s\n"
      "cadence; listen-only witness with healthy routes answers tip-probes;\n"
      "restart phase crashes the victim at t=%ds (+%ds rebirth); %d s run\n",
      PartitionWorld::kBuddies, PartitionWorld::kDetourSeconds,
      PartitionWorld::kPartitionAtSeconds, kHealAtSeconds,
      PartitionWorld::kMineEverySeconds, PartitionWorld::kCrashAtSeconds,
      PartitionWorld::kRestartAfterSeconds, kRunSeconds);

  bsbench::JsonReport report("bench_partition");
  report.SetSeed(42);  // NodeConfig default; every node derives from it

  bsbench::PrintSection("tip gap to the miner, by phase");
  std::printf("%-17s | %6s | %7s | %7s | %7s | %7s | %6s | %5s | %5s\n", "phase",
              "final", "reconv", "windows", "actions", "probes", "defer", "bans",
              "score");
  bsbench::PrintRule();

  std::vector<std::pair<Phase, PhaseResult>> results;
  for (const Phase phase :
       {Phase::kStock, Phase::kHardened, Phase::kHardenedRestart}) {
    const PhaseResult r = RunPhase(phase);
    std::printf(
        "%-17s | %6d | %7s | %7llu | %7llu | %7llu | %6llu | %5zu | %5d\n",
        PhaseName(phase), r.final_gap,
        r.reconverge_seconds < 0
            ? "never"
            : std::to_string(static_cast<int>(r.reconverge_seconds)).c_str(),
        static_cast<unsigned long long>(r.suspect_windows),
        static_cast<unsigned long long>(r.recovery_actions),
        static_cast<unsigned long long>(r.probes_sent),
        static_cast<unsigned long long>(r.deferred_penalties), r.honest_bans,
        r.max_honest_score);
    const std::string key = PhaseName(phase);
    report.Add("final_gap_" + key, r.final_gap);
    report.Add("reconverge_seconds_" + key, r.reconverge_seconds);
    report.Add("suspect_windows_" + key, r.suspect_windows);
    report.Add("recovery_actions_" + key, r.recovery_actions);
    report.Add("recoveries_" + key, r.recoveries);
    report.Add("probes_sent_" + key, r.probes_sent);
    report.Add("probe_replies_" + key, r.probe_replies);
    report.Add("deferred_penalties_" + key, r.deferred_penalties);
    report.Add("stale_tip_events_" + key, r.stale_tip_events);
    report.Add("honest_bans_" + key, static_cast<std::uint64_t>(r.honest_bans));
    report.Add("max_honest_score_" + key, r.max_honest_score);
    report.Add("victim_outbound_final_" + key,
               static_cast<std::uint64_t>(r.victim_outbound_final));
    report.Add("victim_height_" + key, r.victim_height);
    report.Add("miner_height_" + key, r.miner_height);
    report.Add("routing_partitions_" + key, r.routing_partitions);
    report.Add("delayed_segments_" + key, r.delayed_segments);
    report.AddRaw("series_gap_" + key, bsbench::SeriesJson(r.gap_series));
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
  std::printf("stock never reconverges within the run (final gap >= 5): %s (%d)\n",
              stock.final_gap >= 5 ? "yes" : "NO", stock.final_gap);
  std::printf("stock blind to the cut (0 suspect windows):              %s (%llu)\n",
              stock.suspect_windows == 0 ? "yes" : "NO",
              static_cast<unsigned long long>(stock.suspect_windows));
  std::printf("hardened reconverges to within 1 block (final <= 1):     %s (%d)\n",
              hard.final_gap <= 1 ? "yes" : "NO", hard.final_gap);
  std::printf("hardened reconverge time bounded (0 < t <= 30 s):        %s (%s)\n",
              hard.reconverge_seconds > 0 && hard.reconverge_seconds <= 30
                  ? "yes"
                  : "NO",
              hard.reconverge_seconds < 0
                  ? "never"
                  : std::to_string(static_cast<int>(hard.reconverge_seconds)).c_str());
  std::printf("suspicion armed before the heal (windows >= 1):          %s (%llu)\n",
              hard.suspect_windows >= 1 ? "yes" : "NO",
              static_cast<unsigned long long>(hard.suspect_windows));
  std::printf("recovery ladder ran (actions >= 3):                      %s (%llu)\n",
              hard.recovery_actions >= 3 ? "yes" : "NO",
              static_cast<unsigned long long>(hard.recovery_actions));
  std::printf("tip probes flowed both ways (sent and answered):         %s (%llu/%llu)\n",
              hard.probes_sent > 0 && hard.probe_replies > 0 ? "yes" : "NO",
              static_cast<unsigned long long>(hard.probes_sent),
              static_cast<unsigned long long>(hard.probe_replies));
  std::printf("no honest node banned any other (all phases):            %s (%zu/%zu/%zu)\n",
              stock.honest_bans + hard.honest_bans + restart.honest_bans == 0
                  ? "yes"
                  : "NO",
              stock.honest_bans, hard.honest_bans, restart.honest_bans);
  std::printf("honest scores stay under the ban threshold (< 100):      %s (%d)\n",
              hard.max_honest_score < 100 && restart.max_honest_score < 100
                  ? "yes"
                  : "NO",
              std::max(hard.max_honest_score, restart.max_honest_score));
  std::printf("emergency slot released after recovery (outbound == %d):  %s (%zu)\n",
              PartitionWorld::kTargetOutbound,
              hard.victim_outbound_final ==
                      static_cast<std::size_t>(PartitionWorld::kTargetOutbound)
                  ? "yes"
                  : "NO",
              hard.victim_outbound_final);
  std::printf("reborn victim re-detects and reconverges (final <= 1):   %s (%d)\n",
              restart.final_gap <= 1 ? "yes" : "NO", restart.final_gap);
  std::printf("crash actually happened in the restart phase:            %s (%llu)\n",
              restart.host_crashes >= 1 ? "yes" : "NO",
              static_cast<unsigned long long>(restart.host_crashes));
  report.WriteTo(json_path);
  return 0;
}
