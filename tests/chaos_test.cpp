// Deterministic chaos harness: the ban-score pipeline, the hardened node,
// and the detection engine under randomized fault plans (packet loss,
// duplication, reordering, corruption, link flaps, peer crash/restart), many
// seeds. Every run is reproducible from its seed, and each run checks the
// safety invariants the paper's mechanisms rely on:
//
//   * the process never crashes (a completing test IS the assertion; the
//     TSan stage in scripts/check.sh re-runs a seed slice for UB/data races);
//   * a peer's score never reaches the ban threshold without the policy
//     banning it (score/ban coupling);
//   * bans expire exactly once — every banned identifier is banned at most
//     once per run and the ban table is empty after the expiry horizon;
//   * honest peers are never misbehavior-scored, no matter how much loss,
//     reordering, or corruption their links suffer (faults are not crimes);
//   * the Fig. 10 detector still separates attack windows from normal
//     windows at 5% packet loss.
//
// The chaos, eclipse and partition worlds come from src/scenario/
// (bsscenario), which banscore-lab and the benches run too.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/bmdos.hpp"
#include "attack/crafter.hpp"
#include "attack/traffic.hpp"
#include "core/node.hpp"
#include "detect/engine.hpp"
#include "detect/monitor.hpp"
#include "scenario/chaos_world.hpp"
#include "scenario/eclipse_world.hpp"
#include "scenario/partition_world.hpp"
#include "sim/faults.hpp"
#include "sim/simfs.hpp"
#include "store/fsck.hpp"

namespace {

using namespace bsnet;  // NOLINT
using bsattack::AttackerNode;
using bsattack::AttackSession;
using bsattack::Crafter;
using bsim::FaultPlan;
using bsim::FaultSpec;
using bsscenario::ChaosWorld;

constexpr std::uint32_t kVictimIp = ChaosWorld::kVictimIp;
constexpr std::uint32_t kAttackerIp = ChaosWorld::kAttackerIp;
constexpr std::uint32_t kHonestBase = ChaosWorld::kHonestBase;
constexpr int kHonestPeers = ChaosWorld::kHonestPeers;

bsscenario::ChaosSpec ChaosSpecFor(std::uint64_t seed, const std::string& tag) {
  bsscenario::ChaosSpec spec;
  spec.seed = seed;
  spec.banlist_path =
      ::testing::TempDir() + "/chaos_" + tag + "_" + std::to_string(seed) + ".dat";
  return spec;
}

/// Counter fingerprint for determinism comparison (paired with the
/// human-readable trace ring).
std::string Fingerprint(ChaosWorld& world) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "msgs=%llu bans=%llu shed=%llu segs=%llu loss=%llu dup=%llu "
                "reord=%llu corr=%llu part=%llu retx=%llu",
                static_cast<unsigned long long>(world.victim->TotalMessagesReceived()),
                static_cast<unsigned long long>(world.victim->PeersBanned()),
                static_cast<unsigned long long>(world.victim->RxBytesShed()),
                static_cast<unsigned long long>(world.net.SegmentsSent()),
                static_cast<unsigned long long>(world.plan.SegmentsDroppedLoss()),
                static_cast<unsigned long long>(world.plan.SegmentsDuplicated()),
                static_cast<unsigned long long>(world.plan.SegmentsDelayed()),
                static_cast<unsigned long long>(world.plan.SegmentsCorrupted()),
                static_cast<unsigned long long>(world.plan.SegmentsDroppedPartition()),
                static_cast<unsigned long long>(world.net.SegmentsRetransmitted()));
  return std::string(buf) + "\n" + world.victim->Trace().Render(128);
}

void AssertChaosInvariants(ChaosWorld& world) {
  // Score/ban coupling: no peer ever sat at/above the threshold unbanned.
  EXPECT_EQ(world.threshold_crossings_without_ban, 0);

  // Honest peers under loss/corruption/reordering are never scored; the only
  // identifier that ever earns points is the attacker's.
  for (const std::uint32_t ip : world.scored_ips) {
    EXPECT_EQ(ip, kAttackerIp) << "honest peer 0x" << std::hex << ip
                               << " was misbehavior-scored under faults";
  }

  // The attack actually landed: deliveries happened and produced bans.
  EXPECT_GT(world.attack_deliveries, 0u);
  EXPECT_GE(world.victim->PeersBanned(), 1u);

  // Bans expire exactly once: every banned identifier was banned a single
  // time (fresh Sybil ports each cycle), and after the expiry horizon the
  // maintenance sweep has emptied the table.
  for (const auto& [endpoint, count] : world.ban_events) {
    EXPECT_EQ(count, 1) << endpoint.ToString() << " banned more than once";
  }
  EXPECT_EQ(world.victim->Bans().Size(), 0u);

  // The fault plan really fired its scheduled events.
  EXPECT_EQ(world.plan.HostCrashes(), 1u);
  EXPECT_EQ(world.plan.LinkFlaps(), 2u);

  // After the heal the hardened node recovered its outbound slots (backoff
  // cap is 8 s, heal phase is 45 s).
  EXPECT_GE(world.victim->OutboundCount(), static_cast<std::size_t>(kHonestPeers - 1));
}

// ---------------------------------------------------------------------------
// The seed sweep: ≥50 randomized chaos runs.

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Each run: clean boot (all outbound slots fill before the weather turns),
// 60 s of randomized weather (per-segment faults everywhere, two link flaps
// against the victim inside the first 40 s, one honest peer crash with
// restart), then the heal past the ban-expiry horizon.
TEST_P(ChaosSweep, InvariantsHoldUnderRandomizedFaults) {
  ChaosWorld world(ChaosSpecFor(GetParam(), "sweep"));
  world.Boot();
  ASSERT_EQ(world.victim->OutboundCount(), static_cast<std::size_t>(kHonestPeers));
  world.RunWeatherAndHeal(60, 40);
  AssertChaosInvariants(world);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Determinism: a chaos run is a pure function of its seed.

TEST(ChaosDeterminism, SameSeedSameRunDifferentSeedDifferentRun) {
  auto run = [](std::uint64_t seed) {
    ChaosWorld world(ChaosSpecFor(seed, "det"));
    world.Boot();
    world.RunWeatherAndHeal(60, 40);
    return Fingerprint(world);
  };
  const std::string first = run(7);
  const std::string second = run(7);
  EXPECT_EQ(first, second) << "same seed must reproduce the identical event trace";
  EXPECT_NE(first, run(8));
}

// ---------------------------------------------------------------------------
// Crash/restart: the victim dies mid-attack and is rebuilt from its
// persisted banlist; the ban survives the reboot.

TEST(ChaosCrashRestart, VictimRebuildsFromPersistedBanlist) {
  bsscenario::ChaosSpec spec = ChaosSpecFor(21, "crash");
  spec.victim.ban_duration = 2 * bsim::kHour;  // survives the whole test
  ChaosWorld world(spec);

  world.sched.RunUntil(5 * bsim::kSecond);
  FaultSpec mild;
  mild.loss = 0.03;
  world.plan.SetDefaultFaults(mild);
  world.StartHonestTraffic();
  world.StartAttack();
  world.sched.RunUntil(25 * bsim::kSecond);
  ASSERT_GE(world.victim->Bans().Size(), 1u);
  const Endpoint banned = world.last_banned;

  world.plan.on_host_crash = [&world](std::uint32_t) { world.CrashVictim(); };
  world.plan.on_host_restart = [&world](std::uint32_t) {
    world.SpawnVictim(/*load_banlist=*/true);
  };
  world.plan.ScheduleCrash(kVictimIp, 26 * bsim::kSecond,
                           /*restart_after=*/5 * bsim::kSecond);
  world.StopAttack();
  world.sched.RunUntil(50 * bsim::kSecond);

  // The reborn victim loaded the banlist and still refuses the banned
  // identifier...
  EXPECT_EQ(world.plan.HostCrashes(), 1u);
  ASSERT_GE(world.victim->Bans().Size(), 1u);
  EXPECT_TRUE(world.victim->Bans().IsBanned(banned, world.sched.Now()));
  AttackSession* replay = world.attacker->OpenSession({kVictimIp, 8333},
                                                      /*auto_handshake=*/true,
                                                      banned.port);
  world.sched.RunUntil(world.sched.Now() + 5 * bsim::kSecond);
  EXPECT_FALSE(replay->SessionReady());
  EXPECT_TRUE(replay->closed);

  // ...while honest peers (and fresh identifiers) reconnect fine.
  EXPECT_GE(world.victim->OutboundCount(), static_cast<std::size_t>(kHonestPeers - 1));
  AttackSession* fresh = world.attacker->OpenSession({kVictimIp, 8333});
  world.sched.RunUntil(world.sched.Now() + 5 * bsim::kSecond);
  EXPECT_TRUE(fresh->SessionReady());
}

// Same crash/restart chaos, but over the durable store instead of the
// banlist file: the reborn victim replays bans, scores, and addresses from
// its WAL with no explicit save/load step, and the store verifies healthy
// after the whole run.

TEST(ChaosCrashRestart, DurableStoreVictimRebuildsWithoutBanlistFile) {
  bsim::SimFs fs(33);
  bsscenario::ChaosSpec spec = ChaosSpecFor(33, "durable");
  spec.victim.ban_duration = 2 * bsim::kHour;  // survives the whole test
  spec.victim.enable_durable_store = true;
  spec.victim.store_dir = "victim-store";
  spec.victim.store_fs = &fs;
  ChaosWorld world(spec);
  ASSERT_NE(world.victim->Durable(), nullptr);

  world.sched.RunUntil(5 * bsim::kSecond);
  FaultSpec mild;
  mild.loss = 0.03;
  world.plan.SetDefaultFaults(mild);
  world.StartHonestTraffic();
  world.StartAttack();
  world.sched.RunUntil(25 * bsim::kSecond);
  ASSERT_GE(world.victim->Bans().Size(), 1u);
  const Endpoint banned = world.last_banned;
  const std::size_t bans_before = world.victim->Bans().Size();

  // No SaveToFile / LoadFromFile: the respawned node's constructor replays
  // the durable store.
  world.plan.on_host_crash = [&world](std::uint32_t) { world.CrashVictim(); };
  world.plan.on_host_restart = [&world](std::uint32_t) {
    world.SpawnVictim(/*load_banlist=*/false);
  };
  world.plan.ScheduleCrash(kVictimIp, 26 * bsim::kSecond,
                           /*restart_after=*/5 * bsim::kSecond);
  world.StopAttack();
  world.sched.RunUntil(50 * bsim::kSecond);

  EXPECT_EQ(world.plan.HostCrashes(), 1u);
  ASSERT_NE(world.victim->Durable(), nullptr);
  EXPECT_GE(world.victim->Bans().Size(), bans_before);
  EXPECT_TRUE(world.victim->Bans().IsBanned(banned, world.sched.Now()));
  AttackSession* replay = world.attacker->OpenSession({kVictimIp, 8333},
                                                      /*auto_handshake=*/true,
                                                      banned.port);
  world.sched.RunUntil(world.sched.Now() + 5 * bsim::kSecond);
  EXPECT_FALSE(replay->SessionReady());
  EXPECT_TRUE(replay->closed);

  // Honest peers reconnect, and the on-disk store checks out clean.
  EXPECT_GE(world.victim->OutboundCount(), static_cast<std::size_t>(kHonestPeers - 1));
  const bsstore::FsckReport report =
      bsstore::RunFsck(fs, "victim-store", /*repair=*/false);
  EXPECT_TRUE(report.store_found);
  EXPECT_TRUE(report.healthy);
  EXPECT_GT(report.active_records, 0u);
}

// ---------------------------------------------------------------------------
// Fig. 10 under weather: the detector's attack/normal separation survives 5%
// packet loss on every honest link.

TEST(ChaosDetection, Fig10SeparationSurvivesFivePercentLoss) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  FaultPlan plan(sched, 4242);
  net.SetFaultPlan(&plan);

  NodeConfig config;
  config.target_outbound = 8;
  Node target(sched, net, kVictimIp, config);
  std::vector<std::unique_ptr<Node>> storage;
  std::vector<Node*> peers;
  for (int i = 0; i < 20; ++i) {
    NodeConfig pc;
    pc.target_outbound = 0;
    auto peer = std::make_unique<Node>(sched, net, kHonestBase + i, pc);
    peer->Start();
    target.AddKnownAddress({peer->Ip(), 8333});
    peers.push_back(peer.get());
    storage.push_back(std::move(peer));
  }
  target.Start();
  sched.RunUntil(10 * bsim::kSecond);
  ASSERT_EQ(target.OutboundCount(), 8u);

  // 5% loss on every link; the attacker's own host is exempt so the flood
  // sessions establish (handshake SYNs are not retransmitted — an attacker
  // would simply retry from a clean vantage anyway).
  FaultSpec lossy;
  lossy.loss = 0.05;
  plan.SetDefaultFaults(lossy);
  plan.SetHostFaults(kAttackerIp, FaultSpec{});

  bsdetect::Monitor monitor(target);
  bsattack::MainnetTrafficGenerator traffic(sched, peers, target,
                                            bsattack::TrafficConfig{});
  traffic.Start();
  sched.RunUntil(sched.Now() + 28 * bsim::kMinute);
  bsdetect::StatEngine engine;
  ASSERT_TRUE(engine.Train(monitor.AllWindows(4)));

  // Normal lossy traffic stays inside the envelope...
  sched.RunUntil(sched.Now() + 6 * bsim::kMinute);
  const auto normal = engine.Detect(monitor.Window(sched.Now(), 4));
  EXPECT_FALSE(normal.anomalous) << "5% loss alone must not trip the detector";

  // ...and the paper's PING flood still stands out.
  AttackerNode attacker(sched, net, kAttackerIp, config.chain.magic);
  Crafter crafter(config.chain);
  bsattack::BmDosConfig bm;
  bm.payload = bsattack::BmDosConfig::Payload::kPing;
  bm.rate_msgs_per_sec = 250;
  bsattack::BmDosAttack attack(attacker, {kVictimIp, 8333}, crafter, bm);
  attack.Start();
  sched.RunUntil(sched.Now() + 6 * bsim::kMinute);
  attack.Stop();

  const auto result = engine.Detect(monitor.Window(sched.Now(), 4));
  EXPECT_TRUE(result.anomalous);
  EXPECT_TRUE(result.bmdos_suspected);
  EXPECT_GT(result.n, engine.GetProfile().tau_n_high);
}

// ---------------------------------------------------------------------------
// Overload + weather: the full resource-governance stack (eviction, rate
// limit, priority) under a one-netgroup Sybil flood with 5% packet loss on
// every link. The Sybil /16 quickly holds a plurality of inbound slots, so
// its surplus reconnects are flatly refused by the anti-churn guard; the
// eviction machinery is exercised by honest arrivals instead — a late
// joiner from a fresh /16 and an honest peer redialing after its access
// link flaps — each of which must win a slot back by evicting a Sybil.
// The invariants: no honest peer is ever the eviction victim, loss is
// never punished as misbehavior, and once the weather clears every honest
// peer is connected again.

TEST(ChaosOverload, SybilFloodPlusLossNeverEvictsHonest) {
  bsim::Scheduler sched;
  bsim::Network net(sched);
  FaultPlan plan(sched, 777);
  net.SetFaultPlan(&plan);

  NodeConfig config;
  config.max_inbound = 16;
  config.target_outbound = 0;
  config.ping_interval = 1 * bsim::kSecond;
  config.ping_timeout = 6 * bsim::kSecond;
  config.enable_eviction = true;
  config.enable_rate_limit = true;
  config.rx_cycles_per_sec = 8.0e7;
  config.enable_priority = true;
  config.governor_cycles_per_sec = 1.0e9;
  Node victim(sched, net, kVictimIp, config);
  victim.Start();

  std::vector<std::uint32_t> evicted_honest;
  victim.on_peer_evicted = [&evicted_honest](const Peer& peer) {
    if ((peer.remote.ip >> 16) != 0xc0a8u) evicted_honest.push_back(peer.remote.ip);
  };

  // Six honest peers in six distinct /16 netgroups, each holding one
  // outbound session into the victim and redialing whenever it drops.
  std::vector<std::unique_ptr<Node>> honest;
  for (std::uint32_t i = 0; i < 6; ++i) {
    NodeConfig pc;
    pc.target_outbound = 1;
    pc.rng_seed = 500 + i;
    pc.ping_interval = 1 * bsim::kSecond;
    pc.ping_timeout = 6 * bsim::kSecond;
    auto node = std::make_unique<Node>(sched, net, 0x0a100001 + (i << 16), pc);
    node->AddKnownAddress({kVictimIp, 8333});
    node->Start();
    honest.push_back(std::move(node));
  }
  sched.RunUntil(2 * bsim::kSecond);
  for (const auto& node : honest) ASSERT_EQ(node->OutboundCount(), 1u);

  // A seventh honest peer from a fresh /16 arrives mid-flood (10s): the
  // table is full of Sybils by then, so admission requires an eviction.
  NodeConfig jc;
  jc.target_outbound = 1;
  jc.rng_seed = 599;
  jc.ping_interval = 1 * bsim::kSecond;
  jc.ping_timeout = 6 * bsim::kSecond;
  auto joiner = std::make_unique<Node>(sched, net, 0x0a200001, jc);
  joiner->AddKnownAddress({kVictimIp, 8333});
  sched.After(10 * bsim::kSecond, [&joiner]() { joiner->Start(); });

  FaultSpec lossy;
  lossy.loss = 0.05;
  plan.SetDefaultFaults(lossy);
  // One honest access link goes dark for 8s mid-flood: the victim times the
  // peer out, a Sybil snatches the freed slot, and the healed honest peer
  // must evict its way back in.
  plan.ScheduleLinkFlap(honest[0]->Ip(), kVictimIp, 12 * bsim::kSecond,
                        8 * bsim::kSecond);

  // The Sybil flood: two attacker hosts in ONE /16, 6 sessions each — 12
  // Sybil conns against 10 free slots, 20 kB bogus-BLOCK frames, immediate
  // reconnect whenever eviction claws a slot back.
  Crafter crafter(config.chain);
  const bsutil::ByteVec bogus = crafter.BogusBlockFrame(config.chain.magic, 20'000);
  std::vector<std::unique_ptr<AttackerNode>> sybils;
  std::vector<AttackSession*> sessions;
  for (std::uint32_t i = 0; i < 2; ++i) {
    sybils.push_back(std::make_unique<AttackerNode>(sched, net, 0xc0a80001 + i,
                                                    config.chain.magic));
    for (int s = 0; s < 6; ++s) sessions.push_back(sybils[i]->OpenSession({kVictimIp, 8333}));
  }
  bool flooding = true;
  std::function<void()> flood_tick = [&]() {
    if (!flooding) return;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      AttackerNode& owner = *sybils[i / 6];
      if (sessions[i] == nullptr || sessions[i]->closed) {
        sessions[i] = owner.OpenSession({kVictimIp, 8333});
      } else if (sessions[i]->tcp_established) {
        owner.SendRawFrame(*sessions[i], bogus);
      }
    }
    sched.After(10 * bsim::kMillisecond, flood_tick);
  };
  sched.After(0, flood_tick);
  sched.RunUntil(32 * bsim::kSecond);

  // The defenses were actually exercised under weather...
  EXPECT_GT(victim.PeersEvicted(), 0u);
  EXPECT_GT(victim.RateLimitedFrames(), 0u);
  // ...and no honest peer was ever the victim of an eviction.
  EXPECT_TRUE(evicted_honest.empty())
      << evicted_honest.size() << " honest evictions, first ip=0x" << std::hex
      << evicted_honest.front();

  // Heal: flood off, weather off. Every honest peer ends connected.
  flooding = false;
  plan.SetDefaultFaults(FaultSpec{});
  sched.RunUntil(sched.Now() + 20 * bsim::kSecond);
  for (const auto& node : honest) {
    EXPECT_EQ(node->OutboundCount(), 1u)
        << "honest 0x" << std::hex << node->Ip() << " did not recover";
  }
  EXPECT_EQ(joiner->OutboundCount(), 1u) << "late joiner did not recover";
}

// ---------------------------------------------------------------------------
// Eclipse + weather + crash: a hardened victim (bucketed addrman, anchors,
// feelers, outbound diversity, stale-tip recovery, eviction, durable store)
// under a sustained eclipse attack with 5% packet loss on every link, crashed
// and rebuilt from its WAL mid-attack. Across 50 seeds: the reborn victim
// must re-dial at least one durable anchor, shed the eclipse once the
// attacker gives up (final control fraction < 0.5), and leave a healthy
// store behind.

class ChaosEclipseHeal : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosEclipseHeal, VictimRecoversControlAcrossCrashAndLoss) {
  const std::uint64_t seed = GetParam();
  bsscenario::EclipseSpec spec;
  spec.run_seconds = 70;
  spec.attack_stop_seconds = 45;
  spec.dial_in_seconds = 20;
  spec.victim_seed = seed;
  spec.infra_nodes = 4;
  spec.inactivity_timeout = 15 * bsim::kSecond;
  // Crash mid-attack, rebuild from the WAL two (sim) seconds later. The
  // reborn node gets NO address re-seeding: everything it knows — addresses,
  // bans, anchors — must come out of the durable store replay.
  spec.crash_restart = true;
  spec.restart_reseeds = false;
  spec.loss = 0.05;
  bsscenario::EclipseWorld world(spec);
  ASSERT_NE(world.Victim()->Durable(), nullptr);

  const bsscenario::EclipseOutcome out = world.Run();

  // The reborn victim re-dialed a durable anchor, shed the eclipse, and the
  // store it ran on verifies healthy.
  EXPECT_GE(world.Victim()->AnchorRedials(), 1u) << "seed " << seed;
  EXPECT_LT(out.final_fraction, 0.5) << "seed " << seed << " stayed eclipsed";
  const bsstore::FsckReport report =
      bsstore::RunFsck(world.Fs(), bsscenario::EclipseWorld::kStoreDir, /*repair=*/false);
  EXPECT_TRUE(report.store_found);
  EXPECT_TRUE(report.healthy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosEclipseHeal,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Routing partition + loss + crash: a hardened victim (partition resilience,
// anchors, stale-tip recovery, durable store) behind an asymmetric /16
// routing detour — return traffic from the mining side crawls through a 45 s
// detour while the forward path stays clean — with 5% packet loss on every
// link and a crash/restart mid-partition rebuilt from the WAL. Across 50
// seeds: the reborn victim must re-arm its partition monitor, reconverge to
// within one block of the miner once its /16 heals, nobody in the all-honest
// world may ban anyone (partition symptoms are not crimes), and the store it
// ran on verifies healthy.

class ChaosPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosPartition, RebornVictimReconvergesWithoutHonestBans) {
  const std::uint64_t seed = GetParam();
  bsscenario::PartitionSpec spec;
  spec.run_seconds = 90;  // the cut at t=10 s, the victim's /16 healed at t=45 s
  spec.victim_seed = seed;
  spec.node_seed_base = seed + 1000;
  spec.fault_seed = seed;
  // Crash mid-partition, rebirth from the WAL four seconds later. The reborn
  // node gets NO address re-seeding: addresses, anchors, and scores must come
  // out of the durable store replay.
  spec.crash_restart = true;
  spec.restart_reseeds = false;
  spec.loss = 0.05;
  bsscenario::PartitionWorld world(spec);

  const bsscenario::PartitionOutcome out = world.Run();

  Node* victim = world.Victim();
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(victim->Durable(), nullptr);
  EXPECT_GE(world.Plan().HostCrashes(), 1u) << "seed " << seed;
  // The reborn victim re-armed its monitor and crossed the healed cut.
  const int miner_height = world.Miner().Chain().TipHeight();
  EXPECT_GE(victim->PartitionSuspectWindows(), 1u) << "seed " << seed;
  EXPECT_LE(miner_height - victim->Chain().TipHeight(), 1)
      << "seed " << seed << " stayed partitioned (victim "
      << victim->Chain().TipHeight() << " vs miner " << miner_height << ")";
  // Faults are not crimes: nobody in this all-honest world bans anyone, and
  // no tracker anywhere reaches the threshold.
  EXPECT_EQ(out.honest_bans, 0u) << "seed " << seed;
  EXPECT_LT(out.max_honest_score, 100) << "seed " << seed;
  const bsstore::FsckReport report =
      bsstore::RunFsck(world.Fs(), bsscenario::PartitionWorld::kStoreDir, /*repair=*/false);
  EXPECT_TRUE(report.store_found) << "seed " << seed;
  EXPECT_TRUE(report.healthy) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPartition,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
