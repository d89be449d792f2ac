// Graceful degradation under BM-DoS: the overload-resilience headline plot.
//
// The paper shows the stock 0.20.0 node cannot defend itself with ban score
// — bogus-BLOCK frames are dropped before misbehavior tracking runs, so the
// flood is never punished and mining collapses (Fig. 6). This bench measures
// what the identifier-light resource-governance layer buys instead: a victim
// with a small inbound budget serves 8 honest peers (diverse /16 netgroups,
// real tx/block traffic) while 8 attacker processes in ONE /16 netgroup run
// a reconnecting Sybil flood of 60 kB bogus-BLOCK frames at the pipeline cap
// (1000 msg/s per process, §VI-C), ablating {none, eviction, ratelimit,
// priority, all}:
//
//   * eviction keeps honest peers connected (and admits the late joiner)
//     but does nothing for the CPU;
//   * ratelimit/priority shed the flood at the header peek, so the checksum
//     cost that powers BM-DoS is never paid;
//   * all composes them: honest mining rate stays within 2x of the no-attack
//     baseline at an intensity where the stock node degrades >= 10x.
//
// The CPU model runs with net_capacity_fraction raised to 0.98: the paper's
// testbed value (0.73) already caps how much of the CPU the net thread may
// burn, which would mask the defense-vs-collapse contrast this bench exists
// to show (see DESIGN.md "Substitutions").
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "bench_util.hpp"
#include "core/node.hpp"
#include "util/stats.hpp"

namespace {

using bsattack::AttackerNode;
using bsattack::AttackSession;
using bsattack::Crafter;
using bsnet::Node;
using bsnet::NodeConfig;

constexpr std::uint32_t kVictimIp = 0x0a000001;
constexpr int kMaxInbound = 24;
constexpr int kHonestPeers = 8;      // one more joins mid-attack
constexpr int kAttackerProcs = 8;    // one /16 netgroup
constexpr int kConnsPerProc = 2;     // 16 Sybil connections fill the slots
constexpr int kWindows = 30;         // 1-second mining samples
constexpr std::size_t kBogusBytes = 60'000;
constexpr bsim::SimTime kAttackStart = 1 * bsim::kSecond;
constexpr bsim::SimTime kLateJoin = 8 * bsim::kSecond;
constexpr bsim::SimTime kMeasureStart = 10 * bsim::kSecond;

// ith honest peer: its own /16 netgroup (10.(16+i).0.1).
constexpr std::uint32_t HonestIp(int i) {
  return 0x0a000001 + (static_cast<std::uint32_t>(16 + i) << 16);
}
// Attacker processes share the 192.168/16 netgroup.
constexpr std::uint32_t AttackerIp(int i) {
  return 0xc0a80001 + static_cast<std::uint32_t>(i);
}

struct Defense {
  std::string name;
  bool eviction = false;
  bool ratelimit = false;
  bool priority = false;
};

const std::vector<Defense> kDefenses = {
    {"none", false, false, false},
    {"eviction", true, false, false},
    {"ratelimit", false, true, false},
    {"priority", false, false, true},
    {"all", true, true, true},
};

/// One attacker process: holds kConnsPerProc Sybil sessions to the victim,
/// sends one cached bogus-BLOCK frame per tick round-robin, and — unlike the
/// fire-and-forget BmDosAttack — reopens sessions the victim evicts, which
/// is exactly the churn pressure the eviction logic must shrug off.
class ReconnectingFlooder {
 public:
  ReconnectingFlooder(bsim::Scheduler& sched, bsim::Network& net, std::uint32_t ip,
                      const bsproto::Endpoint& target, Crafter& crafter,
                      double msgs_per_sec)
      : sched_(sched),
        node_(sched, net, ip, crafter.Params().magic),
        target_(target),
        frame_(crafter.BogusBlockFrame(crafter.Params().magic, kBogusBytes)),
        interval_(static_cast<bsim::SimTime>(bsim::kSecond / msgs_per_sec)) {}

  void Start() {
    running_ = true;
    for (int i = 0; i < kConnsPerProc; ++i) {
      sessions_.push_back(node_.OpenSession(target_));
    }
    Tick();
  }
  void Stop() { running_ = false; }

 private:
  void Tick() {
    if (!running_) return;
    // One reconnect attempt per tick at most: an evicted Sybil dials back at
    // the same pipeline-capped pace it floods at.
    for (auto& session : sessions_) {
      if (session == nullptr || session->closed) {
        session = node_.OpenSession(target_);
        break;
      }
    }
    for (int probe = 0; probe < kConnsPerProc; ++probe) {
      AttackSession* s = sessions_[next_ % sessions_.size()];
      ++next_;
      if (s != nullptr && s->tcp_established && !s->closed) {
        node_.SendRawFrame(*s, frame_);
        break;
      }
    }
    sched_.After(interval_, [this]() { Tick(); });
  }

  bsim::Scheduler& sched_;
  AttackerNode node_;
  bsproto::Endpoint target_;
  bsutil::ByteVec frame_;
  bsim::SimTime interval_;
  bool running_ = false;
  std::vector<AttackSession*> sessions_;
  std::size_t next_ = 0;
};

struct RunResult {
  bsutil::Summary mining;
  double tx_delivered_ratio = 0.0;
  double tx_latency_ms = 0.0;        // mean, delivered probes only
  std::size_t honest_connected = 0;  // of kHonestPeers + 1
  bool late_joiner_admitted = false;
  std::uint64_t evictions = 0;
  std::uint64_t ratelimited_frames = 0;
  std::uint64_t governor_shed = 0;
  std::uint64_t bad_checksum_frames = 0;
};

/// Honest tx-relay probes: send a valid tx to the victim, poll its mempool
/// at 5 ms granularity, and record the send-to-acceptance latency.
struct TxProbeStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double latency_sum_ms = 0.0;
};

void PollTx(bsim::Scheduler& sched, Node& victim, TxProbeStats& stats,
            bscrypto::Hash256 txid, bsim::SimTime sent_at, bsim::SimTime deadline) {
  if (victim.Pool().Contains(txid)) {
    ++stats.delivered;
    stats.latency_sum_ms += bsim::ToSeconds(sched.Now() - sent_at) * 1e3;
    return;
  }
  if (sched.Now() >= deadline) return;  // shed or lost: counted undelivered
  sched.After(5 * bsim::kMillisecond,
              [&sched, &victim, &stats, txid, sent_at, deadline]() {
                PollTx(sched, victim, stats, txid, sent_at, deadline);
              });
}

RunResult RunScenario(const Defense& defense, int attacker_procs) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  bsim::CpuModelConfig cpu_config;
  cpu_config.net_capacity_fraction = 0.98;
  cpu_config.measurement_jitter = 0.015;
  cpu_config.jitter_seed = 42 + static_cast<std::uint64_t>(attacker_procs);
  bsim::CpuModel cpu(cpu_config);

  NodeConfig config;
  config.max_inbound = kMaxInbound;
  config.target_outbound = 0;
  config.ping_interval = 1 * bsim::kSecond;  // feeds the low-ping tier
  config.enable_eviction = defense.eviction;
  config.enable_rate_limit = defense.ratelimit;
  if (defense.ratelimit) config.rx_cycles_per_sec = 8.0e7;
  config.enable_priority = defense.priority;
  // The governor rides with the priority defense: without priority tiers it
  // is a blind global cap that sheds honest and Sybil work alike.
  if (defense.priority) config.governor_cycles_per_sec = 1.0e9;
  Node victim(sched, net, kVictimIp, config, &cpu);
  victim.Start();

  // Honest peers: real nodes in distinct netgroups, each holding one
  // outbound session into the victim (inbound on the victim's side, so they
  // compete with the Sybils for the same slots).
  std::vector<std::unique_ptr<Node>> honest;
  for (int i = 0; i < kHonestPeers + 1; ++i) {
    NodeConfig hc;
    hc.target_outbound = 1;
    hc.rng_seed = 1000 + static_cast<std::uint64_t>(i);
    auto node = std::make_unique<Node>(sched, net, HonestIp(i), hc, nullptr);
    node->AddKnownAddress({kVictimIp, config.listen_port});
    honest.push_back(std::move(node));
  }
  for (int i = 0; i < kHonestPeers; ++i) {
    const int idx = i;
    sched.After(idx * 50 * bsim::kMillisecond, [&honest, idx]() {
      honest[static_cast<std::size_t>(idx)]->Start();
    });
  }
  // The late joiner arrives once the flood owns every free slot: with
  // eviction it displaces a Sybil, without it is refused until the run ends.
  sched.After(kLateJoin,
              [&honest]() { honest[kHonestPeers]->Start(); });

  // Honest workload: staggered mining (good score + the recent-block tier)
  // and tx probes at 2/s per peer (the recent-tx tier + the latency series).
  Crafter crafter(config.chain);
  TxProbeStats probes;
  for (int i = 0; i < kHonestPeers; ++i) {
    Node* peer = honest[static_cast<std::size_t>(i)].get();
    const bsim::SimTime mine_start =
        2 * bsim::kSecond + i * 400 * bsim::kMillisecond;
    auto mine = std::make_shared<std::function<void()>>();
    *mine = [peer, &sched, mine]() {
      peer->MineAndRelay();
      sched.After(3500 * bsim::kMillisecond, [mine]() { (*mine)(); });
    };
    sched.After(mine_start, [mine]() { (*mine)(); });

    const bsim::SimTime tx_start = 2 * bsim::kSecond + i * 60 * bsim::kMillisecond;
    auto send_tx = std::make_shared<std::function<void()>>();
    *send_tx = [peer, &sched, &victim, &probes, &crafter, send_tx]() {
      const bsproto::TxMsg tx = crafter.ValidTx();
      const bscrypto::Hash256 txid = tx.tx.Txid();
      if (peer->SendToRemoteIp(kVictimIp, tx)) {
        ++probes.sent;
        PollTx(sched, victim, probes, txid, sched.Now(),
               sched.Now() + 1 * bsim::kSecond);
      }
      sched.After(500 * bsim::kMillisecond, [send_tx]() { (*send_tx)(); });
    };
    sched.After(tx_start, [send_tx]() { (*send_tx)(); });
  }

  std::vector<std::unique_ptr<ReconnectingFlooder>> flooders;
  for (int i = 0; i < attacker_procs; ++i) {
    flooders.push_back(std::make_unique<ReconnectingFlooder>(
        sched, net, AttackerIp(i), bsproto::Endpoint{kVictimIp, config.listen_port},
        crafter, bsnet::kBmDosPipelineCapMsgsPerSec));
  }
  sched.After(kAttackStart, [&flooders]() {
    for (auto& f : flooders) f->Start();
  });

  sched.RunUntil(kMeasureStart);
  std::vector<double> samples;
  samples.reserve(kWindows);
  for (int i = 0; i < kWindows; ++i) {
    cpu.SetActiveConnections(static_cast<int>(victim.Peers().size()));
    cpu.BeginWindow(sched.Now());
    sched.RunUntil(sched.Now() + bsim::kSecond);
    samples.push_back(cpu.EndWindow(sched.Now()).mining_rate_hps);
  }
  for (auto& f : flooders) f->Stop();

  RunResult result;
  result.mining = bsutil::Summarize(samples);
  result.tx_delivered_ratio =
      probes.sent == 0 ? 0.0
                       : static_cast<double>(probes.delivered) /
                             static_cast<double>(probes.sent);
  result.tx_latency_ms =
      probes.delivered == 0 ? 0.0
                            : probes.latency_sum_ms /
                                  static_cast<double>(probes.delivered);
  std::size_t connected = 0;
  for (const bsnet::Peer* p : victim.Peers()) {
    for (int i = 0; i < kHonestPeers + 1; ++i) {
      if (p->remote.ip == HonestIp(i) && p->HandshakeComplete()) {
        ++connected;
        if (i == kHonestPeers) result.late_joiner_admitted = true;
      }
    }
  }
  result.honest_connected = connected;
  result.evictions = victim.PeersEvicted();
  result.ratelimited_frames = victim.RateLimitedFrames();
  result.governor_shed = victim.GovernorShedFrames();
  result.bad_checksum_frames = victim.FramesDroppedBadChecksum();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bsbench::TakeJsonFlag(argc, argv);
  bsbench::PrintTitle(
      "bench_degradation — honest service vs BM-DoS flood intensity, by defense");
  std::printf(
      "victim: %d inbound slots, %d honest peers (+1 late joiner), ping/tx/block\n"
      "workload; attackers: N processes x %d Sybil conns in one /16, 60 kB\n"
      "bogus-BLOCK frames at %.0f msg/s each, reconnecting after eviction;\n"
      "%d samples of 1 simulated second\n",
      kMaxInbound, kHonestPeers, kConnsPerProc,
      bsnet::kBmDosPipelineCapMsgsPerSec, kWindows);

  bsbench::JsonReport report("bench_degradation");
  report.SetSeed(42);  // NodeConfig default; every node derives from it

  // Escalation series for the bracketing configs.
  const std::vector<int> intensities = {0, 2, 4, 8};
  bsbench::PrintSection("mining rate vs flood intensity (hashes/second)");
  std::printf("%-10s", "defense");
  for (int n : intensities) std::printf(" | %8d proc", n);
  std::printf(" | %9s | %7s | %8s\n", "tx-deliv", "tx-ms", "honest");
  bsbench::PrintRule();

  double baseline_hps = 0.0;
  std::vector<std::pair<std::string, RunResult>> at_max;
  for (const Defense& defense : kDefenses) {
    const bool full_series = defense.name == "none" || defense.name == "all";
    std::printf("%-10s", defense.name.c_str());
    RunResult last;
    for (int n : intensities) {
      if (!full_series && n != intensities.back() && n != 0) {
        std::printf(" | %13s", "-");
        continue;
      }
      last = RunScenario(defense, n);
      std::printf(" | %13.3g", last.mining.mean);
      if (defense.name == "none" && n == 0) baseline_hps = last.mining.mean;
      report.Add("hps_" + defense.name + "_" + std::to_string(n), last.mining.mean);
      report.Add("txdeliv_" + defense.name + "_" + std::to_string(n),
                 last.tx_delivered_ratio);
      report.Add("txms_" + defense.name + "_" + std::to_string(n), last.tx_latency_ms);
    }
    std::printf(" | %9.3f | %7.2f | %5zu/%d\n", last.tx_delivered_ratio,
                last.tx_latency_ms, last.honest_connected, kHonestPeers + 1);
    at_max.emplace_back(defense.name, last);
  }

  bsbench::PrintSection("at max intensity (8 attacker processes)");
  std::printf("%-10s | %12s | %9s | %10s | %10s | %10s | %6s\n", "defense",
              "mining h/s", "vs base", "evictions", "shed-frms", "bad-cksum",
              "late-in");
  bsbench::PrintRule();
  double none_hps = 0.0, all_hps = 0.0;
  for (const auto& [name, r] : at_max) {
    if (name == "none") none_hps = r.mining.mean;
    if (name == "all") all_hps = r.mining.mean;
    std::printf("%-10s | %12.3g | %8.2fx | %10llu | %10llu | %10llu | %6s\n",
                name.c_str(), r.mining.mean,
                baseline_hps > 0 ? r.mining.mean / baseline_hps : 0.0,
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.ratelimited_frames),
                static_cast<unsigned long long>(r.bad_checksum_frames),
                r.late_joiner_admitted ? "yes" : "NO");
    report.Add("evictions_" + name, r.evictions);
    report.Add("ratelimited_" + name, r.ratelimited_frames);
    report.Add("governor_shed_" + name, r.governor_shed);
    report.Add("honest_connected_" + name, static_cast<std::uint64_t>(r.honest_connected));
    report.Add("late_joiner_" + name, r.late_joiner_admitted ? 1 : 0);
  }

  bsbench::PrintSection("shape checks (the acceptance criteria)");
  const double collapse = baseline_hps / std::max(none_hps, 1.0);
  const double defended = baseline_hps / std::max(all_hps, 1.0);
  std::printf("defenses-off collapses >= 10x at max intensity:   %s (%.1fx)\n",
              collapse >= 10.0 ? "yes" : "NO", collapse);
  std::printf("all defenses stay within 2x of baseline:          %s (%.2fx)\n",
              defended <= 2.0 ? "yes" : "NO", defended);
  const auto find = [&](const std::string& name) -> const RunResult& {
    for (const auto& [n, r] : at_max) {
      if (n == name) return r;
    }
    return at_max.front().second;
  };
  std::printf("eviction keeps all honest peers connected:        %s\n",
              find("eviction").honest_connected == kHonestPeers + 1 ? "yes" : "NO");
  std::printf("eviction admits the late joiner, stock does not:  %s\n",
              (find("eviction").late_joiner_admitted &&
               !find("none").late_joiner_admitted)
                  ? "yes"
                  : "NO");
  std::printf("shedding layers keep honest tx relay intact:      %s\n",
              find("all").tx_delivered_ratio >= 0.95 ? "yes" : "NO");
  report.Add("baseline_hps", baseline_hps);
  report.Add("collapse_factor_none", collapse);
  report.Add("degradation_factor_all", defended);
  report.WriteTo(json_path);
  return 0;
}
