// Fig. 8 reproduction: Defamation via duplicate VERSION messages.
//
// The attacker loop-attacks with serial Sybil identifiers: each identifier
// floods duplicate VERSIONs (+1 ban score each) until the target bans it at
// 100, then the next identifier connects (0.2 s socket-setup latency).
//
//   paper: no delay  -> one identifier banned in ~0.1 s (mean)
//          1 ms delay -> ~0.2 s (mean)
//          full-IP defamation: 16384 ports * (0.1+0.2)s / 60 ≈ 81.92 min
//
// The harness prints the per-identifier ban times (the figure's traces), the
// means for both delays, and the full-IP projection, plus the ban-score
// trajectory of a single identifier (score vs message count).
#include <cstdio>

#include <vector>

#include "bench_util.hpp"
#include "core/node.hpp"
#include "scenario/attack_worlds.hpp"

namespace {

using bsattack::AttackerNode;
using bsnet::Node;
using bsnet::NodeConfig;

constexpr std::uint32_t kTargetIp = 0x0a000001;
constexpr std::uint32_t kAttackerIp = 0x0a000002;

// Shared registry across all defamation runs for the --json report (the
// bs_ban_* series shows the score/ban plane under attack).
bsobs::MetricsRegistry g_metrics;

bsscenario::SybilOutcome RunSybilLoop(bsim::SimTime extra_delay, int identifiers) {
  bsscenario::SybilSpec spec;
  spec.metrics = &g_metrics;
  spec.attack.extra_message_delay = extra_delay;
  spec.attack.max_identifiers = identifiers;
  bsscenario::SybilWorld world(spec);
  return world.Run(identifiers * 2.0 + 10.0);
}

void PrintScoreTrajectory() {
  bsbench::PrintSection("ban-score trajectory of one identifier (duplicate VERSIONs)");
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  Node target(sched, net, kTargetIp, config);
  target.Start();
  AttackerNode attacker(sched, net, kAttackerIp, config.chain.magic);

  std::vector<std::pair<double, int>> trajectory;  // (time sec, score)
  target.on_misbehavior = [&](const bsnet::Peer&, bsnet::Misbehavior,
                              const bsnet::MisbehaviorOutcome& outcome) {
    trajectory.emplace_back(bsim::ToSeconds(sched.Now()), outcome.total_score);
  };

  auto* session = attacker.OpenSession({kTargetIp, 8333}, /*auto_handshake=*/false);
  sched.RunUntil(bsim::kSecond);
  const double t0 = bsim::ToSeconds(sched.Now());
  attacker.Send(*session, bsproto::VersionMsg{});  // the legitimate first one
  for (int i = 0; i < 120 && !session->closed; ++i) {
    attacker.Send(*session, bsproto::VersionMsg{});
    sched.RunUntil(sched.Now() + bsim::kMillisecond);
  }
  std::printf("%-12s | %s\n", "time (s)", "ban score");
  bsbench::PrintRule('-', 30);
  for (std::size_t i = 0; i < trajectory.size(); i += 10) {
    std::printf("%-12.4f | %d\n", trajectory[i].first - t0, trajectory[i].second);
  }
  if (!trajectory.empty()) {
    std::printf("%-12.4f | %d  <- banned (threshold %d)\n",
                trajectory.back().first - t0, trajectory.back().second,
                target.Config().ban_threshold);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle("bench_fig8_defamation — Fig. 8: Defamation via VERSION message");

  const bsscenario::SybilOutcome no_delay = RunSybilLoop(0, 20);
  const bsscenario::SybilOutcome one_ms = RunSybilLoop(bsim::kMillisecond, 20);

  bsbench::PrintSection("serial Sybil loop, 20 identifiers each");
  std::printf("%-12s | %10s | %14s | %10s\n", "delay", "banned", "mean t2ban (s)",
              "paper (s)");
  bsbench::PrintRule();
  std::printf("%-12s | %10d | %14.4f | %10.2f\n", "none", no_delay.banned,
              no_delay.mean_time_to_ban, 0.1);
  std::printf("%-12s | %10d | %14.4f | %10.2f\n", "1 ms", one_ms.banned,
              one_ms.mean_time_to_ban, 0.2);

  bsbench::PrintSection("per-identifier time-to-ban, no delay (the Fig. 8 trace)");
  for (std::size_t i = 0; i < no_delay.time_to_ban.size(); ++i) {
    std::printf("identifier %2zu: %.4f s\n", i + 1, no_delay.time_to_ban[i]);
  }

  PrintScoreTrajectory();

  // ---- §VI-D: peer-table diversity decay under pre-connection defamation ----
  bsbench::PrintSection(
      "peer-table diversity decay under pre-connection defamation (§VI-D)");
  {
    // A 50-identifier address pool: one innocent host, many ports (per-
    // [IP:Port] banning makes each a distinct peer-table entry).
    bsscenario::DefameWorld world(bsscenario::DefameSpec{});
    for (std::uint16_t port = 9000; port < 9050; ++port) {
      world.target->AddKnownAddress({bsscenario::DefameWorld::kInnocentIp, port});
    }
    std::printf("%-18s | %s\n", "identifiers defamed", "usable pool entries");
    bsbench::PrintRule('-', 44);
    for (int defamed = 0; defamed <= 50; defamed += 10) {
      std::size_t usable = 0;
      for (std::uint16_t port = 9000; port < 9050; ++port) {
        if (!world.target->Bans().IsBanned({bsscenario::DefameWorld::kInnocentIp, port},
                                           world.sched.Now())) {
          ++usable;
        }
      }
      std::printf("%-18d | %zu\n", defamed, usable);
      for (int i = 0; i < 10 && defamed < 50; ++i) {
        // §VI-D pacing: one identifier every 0.3 s.
        world.DefamePre(static_cast<std::uint16_t>(9000 + defamed + i), 0.3);
      }
    }
    std::printf("(every defamed identifier is unusable for 24 h; at the paper's "
                "0.3 s per\n identifier a whole IP's 16384 ports fall in "
                "~82 minutes)\n");
  }

  bsbench::PrintSection("full-IP (pre-connection) defamation projection, §VI-D");
  std::printf("per-identifier cost: %.3f s (ban) + 0.200 s (socket setup)\n",
              no_delay.mean_time_to_ban);
  std::printf("16384 ephemeral ports x %.3f s / 60 = %.2f min (paper: 81.92 min)\n",
              no_delay.mean_time_to_ban + 0.2, no_delay.FullIpMinutes());
  std::printf("-> the whole IP is unable to connect to the target for 24 h\n");

  bsbench::JsonReport report("bench_fig8_defamation");
  report.SetSeed(42);  // NodeConfig default; every node derives from it
  report.Add("no_delay_identifiers_banned", no_delay.banned);
  report.Add("no_delay_mean_time_to_ban_sec", no_delay.mean_time_to_ban);
  report.Add("one_ms_identifiers_banned", one_ms.banned);
  report.Add("one_ms_mean_time_to_ban_sec", one_ms.mean_time_to_ban);
  report.Add("full_ip_projection_min", no_delay.FullIpMinutes());
  report.AttachRegistry(g_metrics);
  report.WriteTo(json_path);
  return 0;
}
