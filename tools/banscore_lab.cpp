// banscore-lab — command-line laboratory for the ban-score attack/defense
// scenarios. Every experiment from the paper can be run with tunable
// parameters without writing code.
//
//   banscore-lab rules   [--version 0.20|0.21|0.22]
//   banscore-lab bmdos   [--payload ping|bogus-block|unknown|invalid-pow]
//                        [--connections N] [--rate R] [--seconds S]
//                        [--policy banscore|infinity|disabled|goodscore]
//   banscore-lab sybil   [--identifiers N] [--delay-ms D]
//                        [--version 0.20|0.21|0.22] [--threshold T]
//   banscore-lab defame  [--mode pre|post] [--policy ...]
//   banscore-lab detect  [--train-minutes M] [--attack bmdos|defame]
//                        [--window W]
//   banscore-lab dump-metrics [--seconds S] [--payload ...] [--format prom|json]
//   banscore-lab chaos   [--seeds N] [--seed-base B] [--seconds S]
//                        (randomized fault sweep; exit 0 iff every seed's
//                        safety invariants held)
//   banscore-lab overload [--defenses none|...|all] [--procs N] [--windows W]
//                        [--min-ratio R] [--format table|json]
//                        (Sybil-flood A/B of honest mining rate)
//   banscore-lab fsck    --dir D [--repair yes] [--format table|json]
//                        [--demo clean|torn]
//                        (validate/repair a StateStore directory; exit 0 iff
//                         the store is healthy after any requested repair)
//   banscore-lab eclipse [--defenses none|all] [--seconds S]
//                        [--heal-fraction F] [--format table|json]
//                        (sustained eclipse attack; exit 0 iff the victim's
//                         final control fraction stays below --heal-fraction)
//   banscore-lab partition [--defenses none|all] [--seconds S]
//                        [--format table|json]
//                        (asymmetric routing detour vs a stock or hardened
//                         victim; exit 0 iff the victim reconverges to
//                         within 1 block of the miner by the end)
//
// Every scenario accepts --seed N (default 42, the NodeConfig default) and
// echoes it in its output, so a sweep driver can re-run any single seed. A
// flag without a value, or a value outside the flag's listed set, exits 2
// before anything runs.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "attack/bmdos.hpp"
#include "attack/defamation.hpp"
#include "attack/traffic.hpp"
#include "core/node.hpp"
#include "detect/engine.hpp"
#include "detect/monitor.hpp"
#include "core/rpc.hpp"
#include "obs/span.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/engine.hpp"
#include "fuzz/harness.hpp"
#include "scenario/attack_worlds.hpp"
#include "scenario/chaos_world.hpp"
#include "scenario/eclipse_world.hpp"
#include "scenario/partition_world.hpp"
#include "store/fsck.hpp"
#include "store/store.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/serialize.hpp"

using namespace bsnet;  // NOLINT

namespace {

// ---------------------------------------------------------------------------
// Tiny flag parser: --key value pairs after the scenario name.

/// Bounds of the numeric flags: an int-valued count, and a duration in
/// seconds small enough that seconds × kSecond stays inside SimTime.
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr double kMaxSeconds = 1e9;
constexpr double kMinSeconds = 1e-3;

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      if (i + 1 == argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// --key as a finite number in [lo, hi]; any other value exits 2.
  double GetNum(const std::string& key, double fallback, double lo, double hi) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    if (const auto value = bsutil::ParseDouble(it->second, lo, hi)) return *value;
    std::fprintf(stderr, "--%s: '%s' is not a number in [%g, %g]\n", key.c_str(),
                 it->second.c_str(), lo, hi);
    std::exit(2);
  }
  /// --key as a whole number in [lo, hi]; any other value exits 2.
  std::uint64_t GetCount(const std::string& key, std::uint64_t fallback, std::uint64_t lo,
                         std::uint64_t hi) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    if (const auto value = bsutil::ParseUint(it->second, lo, hi)) return *value;
    std::fprintf(stderr, "--%s: '%s' is not a whole number in [%llu, %llu]\n",
                 key.c_str(), it->second.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
  }
  /// --key's value mapped through `choices`; any other value exits 2.
  template <typename T>
  T Choose(const std::string& key, const std::string& fallback,
           std::initializer_list<std::pair<const char*, T>> choices) const {
    const std::string value = Get(key, fallback);
    std::string accepted;
    for (const auto& [name, result] : choices) {
      if (value == name) return result;
      accepted += (accepted.empty() ? "" : "|") + std::string(name);
    }
    std::fprintf(stderr, "--%s: unknown value '%s' (want %s)\n", key.c_str(),
                 value.c_str(), accepted.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

CoreVersion ParseVersion(const Flags& flags) {
  return flags.Choose<CoreVersion>("version", "0.20", {{"0.20", CoreVersion::kV0_20},
                                                       {"0.21", CoreVersion::kV0_21},
                                                       {"0.22", CoreVersion::kV0_22}});
}

BanPolicy ParsePolicy(const Flags& flags) {
  return flags.Choose<BanPolicy>("policy", "banscore",
                                 {{"banscore", BanPolicy::kBanScore},
                                  {"infinity", BanPolicy::kThresholdInfinity},
                                  {"disabled", BanPolicy::kDisabled},
                                  {"goodscore", BanPolicy::kGoodScore}});
}

bsattack::BmDosConfig::Payload ParsePayload(const Flags& flags) {
  using Payload = bsattack::BmDosConfig::Payload;
  return flags.Choose<Payload>("payload", "bogus-block",
                               {{"bogus-block", Payload::kBogusBlock},
                                {"ping", Payload::kPing},
                                {"unknown", Payload::kUnknownCommand},
                                {"invalid-pow", Payload::kInvalidPowBlock}});
}

/// --format: true for json, false for the scenario's text format.
bool ParseJsonFormat(const Flags& flags, const char* text = "table") {
  return flags.Choose<bool>("format", text, {{text, false}, {"json", true}});
}

/// --defenses none|all of the eclipse and partition worlds: true = hardened.
bool ParseHardened(const Flags& flags) {
  return flags.Choose<bool>("defenses", "all", {{"none", false}, {"all", true}});
}

/// One --format json document on its own line.
void PrintJson(const bsutil::JsonObject& doc) { std::printf("%s\n", doc.Render().c_str()); }

/// --seed for every scenario. 42 is the NodeConfig default, so omitting the
/// flag reproduces the historical (pre---seed) runs bit for bit; derived
/// per-node seeds below are chosen as `seed + offset` with offsets that map
/// 42 onto the literals the scenarios used before the flag existed.
std::uint64_t SeedOf(const Flags& flags) {
  return flags.GetCount("seed", 42, 0, std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// Scenarios

int RunRules(const Flags& flags) {
  const CoreVersion version = ParseVersion(flags);
  std::printf("ban-score rules of Bitcoin Core %s\n\n", ToString(version));
  std::printf("%-12s | %-44s | %5s | %-13s | %s\n", "Message", "Misbehavior", "score",
              "Object of ban", "Type");
  for (const RuleInfo& rule : RulesFor(version)) {
    if (!rule.in_paper_table) continue;
    std::printf("%-12s | %-44s | %5d | %-13s | %s\n", rule.message_type,
                rule.description, rule.score, ToString(rule.scope), ToString(rule.cls));
  }
  return 0;
}

int RunBmDos(const Flags& flags) {
  const std::uint64_t seed = SeedOf(flags);
  bsscenario::BmDosSpec spec;
  spec.seed = seed;
  spec.policy = ParsePolicy(flags);
  spec.flood.payload = ParsePayload(flags);
  spec.flood.sybil_connections = static_cast<int>(flags.GetCount("connections", 1, 1, kMaxInt));
  spec.flood.rate_msgs_per_sec = flags.GetNum("rate", 1000, 1e-3, 1e9);
  const double seconds = flags.GetNum("seconds", 10, kMinSeconds, kMaxSeconds);
  spec.cpu.emplace();
  bsscenario::BmDosWorld world(spec);

  const double baseline = world.MiningWindow(1).mining_rate_hps;
  world.StartFlood();
  world.RunFor(2);
  const bsim::MiningSample sample = world.MiningWindow(seconds);
  world.StopFlood();

  std::printf("BM-DoS: payload=%s connections=%d rate=%.0f/s policy=%s seed=%llu\n",
              flags.Get("payload", "bogus-block").c_str(), spec.flood.sybil_connections,
              world.Flood().EffectiveRate(), ToString(spec.policy),
              static_cast<unsigned long long>(seed));
  std::printf("  messages sent:        %llu\n",
              static_cast<unsigned long long>(world.Flood().MessagesSent()));
  std::printf("  mining: %.3g -> %.3g h/s (%.0f%% drop), CPU busy %.1f%%\n", baseline,
              sample.mining_rate_hps,
              100.0 * (1.0 - sample.mining_rate_hps / baseline),
              100.0 * sample.busy_fraction);
  std::printf("  bad-checksum frames dropped: %llu, peers banned: %llu\n",
              static_cast<unsigned long long>(world.target->FramesDroppedBadChecksum()),
              static_cast<unsigned long long>(world.target->PeersBanned()));
  return 0;
}

int RunSybil(const Flags& flags) {
  const std::uint64_t seed = SeedOf(flags);
  bsscenario::SybilSpec spec;
  spec.seed = seed;
  spec.version = ParseVersion(flags);
  spec.threshold = static_cast<int>(flags.GetCount("threshold", 100, 1, kMaxInt));
  spec.attack.max_identifiers = static_cast<int>(flags.GetCount("identifiers", 10, 1, kMaxInt));
  spec.attack.extra_message_delay = static_cast<bsim::SimTime>(
      flags.GetNum("delay-ms", 0, 0, kMaxSeconds * 1000) * bsim::kMillisecond);
  bsscenario::SybilWorld world(spec);
  const bsscenario::SybilOutcome out = world.Run(spec.attack.max_identifiers * 3.0 + 10);

  std::printf("serial Sybil (duplicate VERSION) vs Core %s, threshold %d, seed %llu\n",
              ToString(spec.version), spec.threshold, static_cast<unsigned long long>(seed));
  std::printf("  identifiers banned: %d/%d\n", out.banned, spec.attack.max_identifiers);
  if (out.banned > 0) {
    std::printf("  mean time-to-ban:   %.4f s\n", out.mean_time_to_ban);
    std::printf("  full-IP projection: %.2f min for 16384 ports\n", out.FullIpMinutes());
  } else {
    std::printf("  the VERSION rules are absent in this rule set: the vector is dead\n");
  }
  return 0;
}

int RunDefame(const Flags& flags) {
  const std::uint64_t seed = SeedOf(flags);
  bsscenario::DefameSpec spec;
  spec.seed = seed;
  spec.policy = ParsePolicy(flags);
  const bool pre = flags.Choose<bool>("mode", "post", {{"pre", true}, {"post", false}});
  bsscenario::DefameWorld world(spec);

  if (pre) {
    const bsscenario::DefameOutcome out = world.DefamePre();
    std::printf("pre-connection Defamation of %s under %s (seed %llu): banned=%s\n",
                out.identifier.ToString().c_str(), ToString(spec.policy),
                static_cast<unsigned long long>(seed), out.banned ? "YES" : "no");
    return 0;
  }
  const bsscenario::DefameOutcome out = world.DefamePost();
  if (!out.session_found) {
    std::printf("setup failed: no outbound session\n");
    return 1;
  }
  std::printf("post-connection Defamation of %s under %s (seed %llu): "
              "injected=%s banned=%s\n",
              out.identifier.ToString().c_str(), ToString(spec.policy),
              static_cast<unsigned long long>(seed), out.injected ? "yes" : "no",
              out.banned ? "YES" : "no");
  return 0;
}

int RunDetect(const Flags& flags) {
  const std::uint64_t seed = SeedOf(flags);
  const bool bmdos = flags.Choose<bool>("attack", "bmdos", {{"bmdos", true}, {"defame", false}});
  const int train_minutes = static_cast<int>(flags.GetCount("train-minutes", 60, 1, 1000000));
  const int window = static_cast<int>(flags.GetCount("window", 10, 1, 1000000));
  bsim::Scheduler sched;
  bsim::Network net(sched);
  NodeConfig config;
  config.rng_seed = seed;
  config.target_outbound = 8;
  Node target(sched, net, 0x0a000001, config);
  std::vector<std::unique_ptr<Node>> storage;
  std::vector<Node*> peers;
  for (int i = 0; i < 20; ++i) {
    NodeConfig pc;
    pc.rng_seed = seed;
    pc.target_outbound = 0;
    auto peer = std::make_unique<Node>(sched, net, 0x0a000100 + i, pc);
    peer->Start();
    target.AddKnownAddress({peer->Ip(), 8333});
    peers.push_back(peer.get());
    storage.push_back(std::move(peer));
  }
  target.Start();
  sched.RunUntil(10 * bsim::kSecond);

  bsdetect::Monitor monitor(target);
  bsattack::MainnetTrafficGenerator traffic(sched, peers, target,
                                            bsattack::TrafficConfig{});
  traffic.Start();

  std::printf("training on %d simulated minutes (window %d min, seed %llu)...\n",
              train_minutes, window, static_cast<unsigned long long>(seed));
  sched.RunUntil(sched.Now() + train_minutes * bsim::kMinute);
  bsdetect::StatEngine engine;
  if (!engine.Train(monitor.AllWindows(window))) {
    std::printf("not enough windows to train\n");
    return 1;
  }
  const auto& p = engine.GetProfile();
  std::printf("tau_n=[%.0f, %.0f]  tau_c=[0, %.2f]  tau_lambda=%.4f\n", p.tau_n_low,
              p.tau_n_high, p.tau_c_high, p.tau_lambda);

  bsattack::AttackerNode attacker(sched, net, 0x0a000066, config.chain.magic);
  bsattack::Crafter crafter(config.chain);
  std::unique_ptr<bsattack::BmDosAttack> flood;
  std::vector<std::unique_ptr<bsattack::PostConnectionDefamation>> defamations;
  if (bmdos) {
    bsattack::BmDosConfig bm;
    bm.payload = bsattack::BmDosConfig::Payload::kPing;
    bm.rate_msgs_per_sec = 250;
    flood = std::make_unique<bsattack::BmDosAttack>(attacker,
                                                    bsproto::Endpoint{target.Ip(), 8333},
                                                    crafter, bm);
    flood->Start();
    sched.RunUntil(sched.Now() + (window + 1) * bsim::kMinute);
  } else {
    const bsim::SimTime until = sched.Now() + window * bsim::kMinute;
    while (sched.Now() < until) {
      for (const Peer* peer : target.Peers()) {
        if (!peer->inbound && peer->HandshakeComplete() &&
            !target.Bans().IsBanned(peer->remote, sched.Now())) {
          auto d = std::make_unique<bsattack::PostConnectionDefamation>(
              attacker, peer->conn->Local(), peer->remote);
          d->Arm({bsproto::EncodeMessage(config.chain.magic,
                                         crafter.SegwitInvalidTx())});
          defamations.push_back(std::move(d));
          break;
        }
      }
      sched.RunUntil(sched.Now() + 10 * bsim::kSecond);
    }
  }

  const auto result = engine.Detect(monitor.Window(sched.Now(), window));
  std::string verdict = "normal";
  if (result.anomalous) {
    std::string attribution = result.bmdos_suspected ? "bm-dos" : "";
    if (result.defamation_suspected) {
      attribution += attribution.empty() ? "defamation" : " defamation";
    }
    verdict = "ANOMALOUS (" + attribution + ")";
  }
  std::printf("under %s: n=%.0f c=%.2f rho=%.4f -> %s\n", bmdos ? "bmdos" : "defame",
              result.n, result.c, result.rho, verdict.c_str());
  return result.anomalous ? 0 : 1;
}

int RunDumpMetrics(const Flags& flags) {
  // Drive a short instrumented BM-DoS run against a victim node sharing one
  // registry with the scheduler, then print the scrape-ready snapshot.
  const std::uint64_t seed = SeedOf(flags);
  bsobs::MetricsRegistry registry;
  bsscenario::BmDosSpec spec;
  spec.seed = seed;
  spec.policy = ParsePolicy(flags);
  spec.flood.payload = ParsePayload(flags);
  const bool json = ParseJsonFormat(flags, "prom");
  const double seconds = flags.GetNum("seconds", 5, kMinSeconds, kMaxSeconds);
  spec.metrics = &registry;
  spec.net_metrics = true;
  bsscenario::BmDosWorld world(spec);
  world.StartFlood();
  world.RunFor(seconds);
  world.StopFlood();

  if (json) {
    // The snapshot itself must stay parseable, so the seed echo goes to
    // stderr rather than into the JSON document.
    std::fprintf(stderr, "# seed %llu\n", static_cast<unsigned long long>(seed));
    std::printf("%s\n", registry.RenderJson().c_str());
  } else {
    std::printf("# seed %llu\n", static_cast<unsigned long long>(seed));
    std::printf("%s", registry.RenderPrometheus().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Overload: a quick A/B of the victim's honest mining rate with and without
// a reconnecting one-netgroup Sybil flood, under a chosen defense ablation.
// The victim has 12 inbound slots; 6 honest peers in distinct /16s dial in
// and mine every 3 s; --procs attacker processes in 192.168/16 hold 2
// sessions each and send 60 kB bogus-BLOCK frames every millisecond. There
// are no tx probes and no late joiner. Exit 1 if the attacked/baseline
// mining ratio falls below --min-ratio (the CI smoke gate).

struct OverloadResult {
  double mining_hps = 0.0;
  std::size_t honest_connected = 0;
  std::uint64_t evictions = 0;
  std::uint64_t shed_frames = 0;
  std::uint64_t rejects = 0;
};

OverloadResult RunOverloadOnce(bool attack, bool eviction, bool ratelimit,
                               bool priority, int procs, int windows,
                               std::uint64_t seed) {
  constexpr std::uint32_t kVictim = 0x0a000001;
  constexpr int kHonest = 6;
  bsim::Scheduler sched;
  bsim::Network net(sched);
  bsim::CpuModelConfig cpu_config;
  // The paper's net_capacity_fraction (0.73) caps the flood's CPU damage;
  // raise it so defenses-off vs defenses-on actually separates (DESIGN.md).
  cpu_config.net_capacity_fraction = 0.98;
  bsim::CpuModel cpu(cpu_config);

  NodeConfig config;
  config.rng_seed = seed;
  config.max_inbound = 12;
  config.target_outbound = 0;
  config.ping_interval = 1 * bsim::kSecond;
  config.enable_eviction = eviction;
  config.enable_rate_limit = ratelimit;
  if (ratelimit) config.rx_cycles_per_sec = 8.0e7;
  config.enable_priority = priority;
  if (priority) config.governor_cycles_per_sec = 1.0e9;
  Node victim(sched, net, kVictim, config, &cpu);
  victim.Start();

  std::vector<std::unique_ptr<Node>> honest;
  for (int i = 0; i < kHonest; ++i) {
    NodeConfig hc;
    hc.target_outbound = 1;
    hc.rng_seed = seed + 1958 + static_cast<std::uint64_t>(i);
    auto node = std::make_unique<Node>(
        sched, net, 0x0a100001 + (static_cast<std::uint32_t>(i) << 16), hc);
    node->AddKnownAddress({kVictim, config.listen_port});
    node->Start();
    honest.push_back(std::move(node));
  }
  for (int i = 0; i < kHonest; ++i) {
    Node* peer = honest[static_cast<std::size_t>(i)].get();
    auto mine = std::make_shared<std::function<void()>>();
    *mine = [peer, &sched, mine]() {
      peer->MineAndRelay();
      sched.After(3 * bsim::kSecond, [mine]() { (*mine)(); });
    };
    sched.After(bsim::kSecond + i * 400 * bsim::kMillisecond,
                [mine]() { (*mine)(); });
  }

  bsattack::Crafter crafter(config.chain);
  const bsutil::ByteVec bogus =
      crafter.BogusBlockFrame(config.chain.magic, 60'000);
  std::vector<std::unique_ptr<bsattack::AttackerNode>> sybils;
  std::vector<bsattack::AttackSession*> sessions;
  bool flooding = false;
  std::function<void()> flood_tick = [&]() {
    if (!flooding) return;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      bsattack::AttackerNode& owner = *sybils[i / 2];
      if (sessions[i] == nullptr || sessions[i]->closed) {
        sessions[i] = owner.OpenSession({kVictim, config.listen_port});
      } else if (sessions[i]->tcp_established) {
        owner.SendRawFrame(*sessions[i], bogus);
      }
    }
    sched.After(bsim::kMillisecond, flood_tick);
  };
  if (attack) {
    for (int i = 0; i < procs; ++i) {
      sybils.push_back(std::make_unique<bsattack::AttackerNode>(
          sched, net, 0xc0a80001 + static_cast<std::uint32_t>(i),
          config.chain.magic));
      for (int s = 0; s < 2; ++s) {
        sessions.push_back(sybils.back()->OpenSession({kVictim, config.listen_port}));
      }
    }
    sched.After(bsim::kSecond, [&]() {
      flooding = true;
      flood_tick();
    });
  }

  sched.RunUntil(6 * bsim::kSecond);
  double hps_sum = 0.0;
  for (int i = 0; i < windows; ++i) {
    cpu.SetActiveConnections(static_cast<int>(victim.Peers().size()));
    cpu.BeginWindow(sched.Now());
    sched.RunUntil(sched.Now() + bsim::kSecond);
    hps_sum += cpu.EndWindow(sched.Now()).mining_rate_hps;
  }
  flooding = false;

  OverloadResult out;
  out.mining_hps = hps_sum / windows;
  for (const Peer* p : victim.Peers()) {
    if ((p->remote.ip >> 16) != 0xc0a8u && p->HandshakeComplete()) {
      ++out.honest_connected;
    }
  }
  out.evictions = victim.PeersEvicted();
  out.shed_frames = victim.RateLimitedFrames();
  out.rejects = victim.InboundFullRejects();
  return out;
}

int RunOverload(const Flags& flags) {
  const std::string defenses = flags.Get("defenses", "all");
  // Bit 0: eviction, bit 1: rate limit, bit 2: priority.
  const int on = flags.Choose<int>("defenses", "all",
                                   {{"none", 0}, {"eviction", 1}, {"ratelimit", 2},
                                    {"priority", 4}, {"all", 7}});
  const bool eviction = (on & 1) != 0;
  const bool ratelimit = (on & 2) != 0;
  const bool priority = (on & 4) != 0;
  const int procs = static_cast<int>(flags.GetCount("procs", 4, 1, 1000));
  const int windows = static_cast<int>(flags.GetCount("windows", 15, 1, 1000000));
  const double min_ratio = flags.GetNum("min-ratio", 0.0, 0, 1e9);
  const bool json = ParseJsonFormat(flags);
  const std::uint64_t seed = SeedOf(flags);

  const OverloadResult base =
      RunOverloadOnce(false, eviction, ratelimit, priority, procs, windows, seed);
  const OverloadResult hit =
      RunOverloadOnce(true, eviction, ratelimit, priority, procs, windows, seed);
  const double ratio =
      base.mining_hps > 0.0 ? hit.mining_hps / base.mining_hps : 0.0;

  if (json) {
    bsutil::JsonObject j;
    j.Add("defenses", defenses).Add("procs", procs).Add("seed", seed);
    j.Add("baseline_hps", base.mining_hps).Add("attacked_hps", hit.mining_hps);
    j.Add("mining_ratio", ratio).Add("honest_connected", hit.honest_connected);
    j.Add("evictions", hit.evictions).Add("shed_frames", hit.shed_frames);
    j.Add("inbound_rejects", hit.rejects).Add("min_ratio", min_ratio);
    PrintJson(j.Add("pass", ratio >= min_ratio));
  } else {
    std::printf("overload: defenses=%s, %d attacker procs x 2 Sybil conns, "
                "60 kB bogus-BLOCK flood, seed %llu\n\n",
                defenses.c_str(), procs, static_cast<unsigned long long>(seed));
    std::printf("  baseline mining:  %12.1f h/s\n", base.mining_hps);
    std::printf("  attacked mining:  %12.1f h/s  (%.2fx of baseline)\n",
                hit.mining_hps, ratio);
    std::printf("  honest connected: %zu/6\n", hit.honest_connected);
    std::printf("  evictions=%llu shed-frames=%llu inbound-rejects=%llu\n",
                static_cast<unsigned long long>(hit.evictions),
                static_cast<unsigned long long>(hit.shed_frames),
                static_cast<unsigned long long>(hit.rejects));
    if (min_ratio > 0.0) {
      std::printf("  min-ratio gate %.2f: %s\n", min_ratio,
                  ratio >= min_ratio ? "PASS" : "FAIL");
    }
  }
  return ratio >= min_ratio ? 0 : 1;
}

// ---------------------------------------------------------------------------
// eclipse: sustained Sybil-occupation + ADDR-poisoning + Defamation eclipse
// against a stock vs. hardened victim (bsscenario::EclipseWorld, the world
// bench_eclipse_resilience runs). Exit 0 iff the victim's final control
// fraction is below --heal-fraction — so `--defenses none` is expected to
// FAIL the gate and `--defenses all` to pass it (check.sh uses exactly that
// pair).

int RunEclipse(const Flags& flags) {
  const bool hardened = ParseHardened(flags);
  const double seconds = flags.GetNum("seconds", 90, kMinSeconds, kMaxSeconds);
  const double heal_fraction = flags.GetNum("heal-fraction", 0.5, 0, 1);
  const bool json = ParseJsonFormat(flags);
  const std::uint64_t seed = SeedOf(flags);
  if (seconds < 60) {
    std::fprintf(stderr, "eclipse: --seconds must be >= 60\n");
    return 2;
  }

  bsscenario::EclipseSpec spec;
  spec.hardened = hardened;
  spec.run_seconds = static_cast<int>(seconds);
  spec.attack_stop_seconds = spec.run_seconds - 30;
  spec.dial_in_seconds = spec.run_seconds - 40;
  spec.victim_seed = seed;
  spec.node_seed_base = seed + 958;
  spec.heal_fraction = heal_fraction;
  bsscenario::EclipseWorld world(spec);
  const bsscenario::EclipseOutcome out = world.Run();
  Node& victim = *world.Victim();
  const std::uint64_t feeler_promotions = victim.FeelerPromotions();
  const std::uint64_t stale_tip_events = victim.StaleTipEvents();
  const std::uint64_t evictions = victim.PeersEvicted();
  const std::size_t tried = victim.Addrs().TriedCount();

  const bool healed = out.final_fraction < heal_fraction;
  if (json) {
    bsutil::JsonObject j;
    j.Add("defenses", hardened ? "all" : "none").Add("seconds", seconds).Add("seed", seed);
    j.Add("peak_fraction", out.peak).Add("final_fraction", out.final_fraction);
    j.Add("heal_seconds", out.heal_seconds).Add("honest_inbound", out.honest_inbound);
    j.Add("attacker_outbound", out.attacker_outbound);
    j.Add("feeler_promotions", feeler_promotions).Add("stale_tip_events", stale_tip_events);
    j.Add("evictions", evictions).Add("tried", tried).Add("heal_fraction", heal_fraction);
    PrintJson(j.Add("healed", healed));
  } else {
    std::printf("eclipse: defenses=%s, %.0f s run, seed %llu, sustained Sybil\n"
                "occupation + ADDR poisoning + Defamation of honest outbound peers\n\n",
                hardened ? "all" : "none", seconds,
                static_cast<unsigned long long>(seed));
    std::printf("  control fraction: peak %.2f, final %.2f\n", out.peak,
                out.final_fraction);
    std::printf("  time-to-heal:     %s\n",
                out.heal_seconds < 0
                    ? "never"
                    : (std::to_string(static_cast<int>(out.heal_seconds)) + " s")
                          .c_str());
    std::printf("  honest inbound=%zu attacker outbound=%d evictions=%llu\n",
                out.honest_inbound, out.attacker_outbound,
                static_cast<unsigned long long>(evictions));
    std::printf("  feeler promotions=%llu stale-tip events=%llu tried=%zu\n",
                static_cast<unsigned long long>(feeler_promotions),
                static_cast<unsigned long long>(stale_tip_events), tried);
    std::printf("  heal gate (final < %.2f): %s\n", heal_fraction,
                healed ? "PASS" : "FAIL");
  }
  return healed ? 0 : 1;
}

// ---------------------------------------------------------------------------
// partition: a Hijacking-Bitcoin style asymmetric routing detour (return
// traffic from the mining side takes a 45 s detour, forward traffic flows
// clean) against a stock or hardened victim whose outbound slots are full of
// same-side peers (bsscenario::PartitionWorld, the world bench_partition
// runs). A listen-only witness with healthy routes answers tip-probes with
// the true height; with --defenses all the fused suspicion score arms, the
// recovery ladder dials across the cut once the victim's /16 heals, and
// partition-aware damping keeps the reconverged victim from being banned by
// its stale buddies. Exit 0 iff the victim ends within 1 block of the miner
// — so `--defenses none` is expected to FAIL the gate and `--defenses all`
// to pass it (check.sh uses exactly that pair).

int RunPartition(const Flags& flags) {
  const bool hardened = ParseHardened(flags);
  const double seconds = flags.GetNum("seconds", 90, kMinSeconds, kMaxSeconds);
  const bool json = ParseJsonFormat(flags);
  const std::uint64_t seed = SeedOf(flags);
  if (seconds < 60) {
    std::fprintf(stderr, "partition: --seconds must be >= 60\n");
    return 2;
  }

  bsscenario::PartitionSpec spec;
  spec.hardened = hardened;
  spec.run_seconds = static_cast<int>(seconds);
  spec.victim_seed = seed;
  spec.node_seed_base = seed + 958;
  spec.fault_seed = seed;
  bsscenario::PartitionWorld world(spec);
  const bsscenario::PartitionOutcome out = world.Run();
  Node& victim = *world.Victim();
  const int victim_height = victim.Chain().TipHeight();
  const int miner_height = world.Miner().Chain().TipHeight();

  const bool reconverged = out.final_gap <= 1;
  if (json) {
    bsutil::JsonObject j;
    j.Add("defenses", hardened ? "all" : "none").Add("seconds", seconds).Add("seed", seed);
    j.Add("final_gap", out.final_gap).Add("reconverge_seconds", out.reconverge_seconds);
    j.Add("suspect_windows", victim.PartitionSuspectWindows());
    j.Add("recovery_actions", victim.PartitionRecoveryActions());
    j.Add("probes_sent", victim.TipProbesSent()).Add("probe_replies", victim.TipProbeReplies());
    j.Add("deferred_penalties", out.deferred_penalties).Add("honest_bans", out.honest_bans);
    j.Add("max_honest_score", out.max_honest_score).Add("victim_height", victim_height);
    PrintJson(j.Add("miner_height", miner_height).Add("reconverged", reconverged));
  } else {
    std::printf("partition: defenses=%s, %.0f s run, seed %llu, one-way 45 s\n"
                "routing detour from the mining side, victim /16 healed at "
                "half time\n\n",
                hardened ? "all" : "none", seconds,
                static_cast<unsigned long long>(seed));
    std::printf("  tip gap:    final %d (victim %d vs miner %d), reconverge %s\n",
                out.final_gap, victim_height, miner_height,
                out.reconverge_seconds < 0
                    ? "never"
                    : (std::to_string(static_cast<int>(out.reconverge_seconds)) +
                       " s after the heal")
                          .c_str());
    std::printf("  detection:  suspect windows=%llu recovery actions=%llu\n",
                static_cast<unsigned long long>(victim.PartitionSuspectWindows()),
                static_cast<unsigned long long>(victim.PartitionRecoveryActions()));
    std::printf("  tip probes: sent=%llu answered=%llu deferred penalties=%llu\n",
                static_cast<unsigned long long>(victim.TipProbesSent()),
                static_cast<unsigned long long>(victim.TipProbeReplies()),
                static_cast<unsigned long long>(out.deferred_penalties));
    std::printf("  honest bans=%zu max honest score=%d\n", out.honest_bans,
                out.max_honest_score);
    std::printf("  reconverge gate (final gap <= 1): %s\n",
                reconverged ? "PASS" : "FAIL");
  }
  return reconverged ? 0 : 1;
}

// ---------------------------------------------------------------------------
// chaos: the deterministic fault-injection sweep over bsscenario::ChaosWorld
// (the world tests/chaos_test.cpp sweeps). One seed = one fully reproducible
// run: a hardened victim with 4 honest peers and a Sybil attacker under
// randomized packet loss / duplication / reordering / corruption, two link
// flaps, and one honest-peer crash+restart, followed by a heal phase past the
// ban-expiry horizon. The invariants checked per seed:
//   score-ban:  no peer reaches the threshold without the policy banning it
//   honest:     only the attacker's IP is ever misbehavior-scored
//   expiry:     every ban expires (the table is empty after the horizon)
//   recovery:   the victim refills its outbound slots after the weather ends

int RunChaos(const Flags& flags) {
  const int seeds = static_cast<int>(flags.GetCount("seeds", 20, 1, kMaxInt));
  const std::uint64_t base =
      flags.GetCount("seed-base", 1, 0, std::numeric_limits<std::uint64_t>::max());
  const double seconds = flags.GetNum("seconds", 60, kMinSeconds, kMaxSeconds);

  std::printf("chaos sweep: %d seeds x %.0f s of randomized faults "
              "(loss/dup/reorder/corrupt + 2 link flaps + 1 crash/restart)\n\n",
              seeds, seconds);
  std::printf("%6s | %6s %6s %6s %6s %6s | %4s %9s | %s\n", "seed", "loss", "dup",
              "reord", "corr", "part", "bans", "shed B", "invariants");
  int failures = 0;
  for (int k = 0; k < seeds; ++k) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
    bsscenario::ChaosSpec spec;
    spec.seed = seed;
    bsscenario::ChaosWorld world(spec);
    world.Boot();
    world.RunWeatherAndHeal(seconds, seconds - 5);
    Node& victim = *world.victim;
    const bool only_attacker_scored = world.OnlyAttackerScored();
    const bool bans_expired = victim.Bans().Size() == 0;
    const bool recovered = victim.OutboundCount() >=
                           static_cast<std::size_t>(bsscenario::ChaosWorld::kHonestPeers - 1);
    const bool ok = only_attacker_scored && world.threshold_crossings_without_ban == 0 &&
                    victim.PeersBanned() >= 1 && bans_expired && recovered;
    std::string verdict;
    if (ok) {
      verdict = "OK";
    } else {
      if (!only_attacker_scored) verdict += " HONEST-SCORED";
      if (world.threshold_crossings_without_ban != 0) verdict += " THRESHOLD-NO-BAN";
      if (victim.PeersBanned() < 1) verdict += " NO-BAN-LANDED";
      if (!bans_expired) verdict += " BAN-STUCK";
      if (!recovered) verdict += " NOT-RECOVERED";
      ++failures;
    }
    std::printf("%6llu | %6llu %6llu %6llu %6llu %6llu | %4llu %9llu |%s%s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(world.plan.SegmentsDroppedLoss()),
                static_cast<unsigned long long>(world.plan.SegmentsDuplicated()),
                static_cast<unsigned long long>(world.plan.SegmentsDelayed()),
                static_cast<unsigned long long>(world.plan.SegmentsCorrupted()),
                static_cast<unsigned long long>(world.plan.SegmentsDroppedPartition()),
                static_cast<unsigned long long>(victim.PeersBanned()),
                static_cast<unsigned long long>(victim.RxBytesShed()),
                ok ? " " : "", verdict.c_str());
  }
  std::printf("\n%d/%d seeds held every invariant\n", seeds - failures, seeds);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// fsck: offline validation/repair of a StateStore directory (src/store/fsck).
// --demo builds a small store in --dir first: "clean" leaves it intact,
// "torn" appends a torn half-frame to the journal so the repair path runs.
// The cli_fsck_roundtrip ctest and the check.sh store-recovery stage gate on
// the exit code: 0 iff the store is healthy after any requested repair.

void PrintFsckTable(const bsstore::FsckReport& report) {
  std::printf("fsck: store_found=%s healthy=%s repaired=%s active_seq=%llu\n",
              report.store_found ? "yes" : "no", report.healthy ? "yes" : "NO",
              report.repaired ? "yes" : "no",
              static_cast<unsigned long long>(report.active_seq));
  std::printf("  active records: %zu  truncated frames: %zu (%zu B)  "
              "corrupt snapshots: %zu  orphan tmp: %zu  stale: %zu\n",
              report.active_records, report.truncated_frames,
              report.truncated_bytes, report.corrupt_snapshots,
              report.orphan_tmp_files, report.stale_files);
  for (const bsstore::FsckFileReport& f : report.files) {
    std::printf("  %-20s %-8s seq=%-4llu header=%s clean=%s records=%zu "
                "committed=%zu dropped=%zu garbage=%zuB%s%s%s\n",
                f.name.c_str(),
                f.orphan_tmp ? "tmp"
                             : (f.kind == bsstore::FileKind::kSnapshot ? "snapshot"
                                                                      : "journal"),
                static_cast<unsigned long long>(f.seq), f.header_ok ? "ok" : "BAD",
                f.clean ? "yes" : "NO", f.records, f.committed, f.dropped_frames,
                f.garbage_bytes, f.stale ? " STALE" : "",
                f.orphan_tmp ? " ORPHAN" : "", f.repaired ? " [repaired]" : "");
  }
}

/// Build a small real store under `dir` (a few committed score records),
/// then for "torn" append half a frame to the journal — the torn tail a
/// crash mid-append leaves behind.
bool BuildFsckDemo(bsstore::StoreFs& fs, const std::string& dir, bool torn) {
  std::uint64_t seq = 0;
  {
    bsstore::StateStore store(fs, dir);
    store.SetSnapshotSource([](const bsstore::StateStore::SnapshotSink&) {});
    if (!store.Open([](std::uint8_t, bsutil::ByteSpan) {})) return false;
    for (std::uint64_t i = 0; i < 8; ++i) {
      bsutil::Writer w;
      w.WriteU64(i);
      w.WriteI64(static_cast<std::int64_t>(10 * i));
      w.WriteI64(0);
      if (!store.AppendCommit(7, w.Data())) return false;
    }
    seq = store.ActiveSeq();
  }
  if (!torn) return true;
  const std::string wal =
      bsstore::JoinPath(dir, bsstore::StateStore::JournalName(seq));
  const int fd = fs.OpenWrite(wal, /*truncate=*/false);
  if (fd < 0) return false;
  // Length prefix promising 64 payload bytes, then only a few: a torn frame.
  bsutil::Writer w;
  w.WriteU32(64);
  w.WriteU8(7);
  w.WriteU32(0xdeadbeef);
  w.WriteU32(0x1234);
  const bool ok = fs.Write(fd, w.Data());
  fs.Close(fd);
  return ok;
}

int RunStoreFsck(const Flags& flags) {
  const std::string dir = flags.Get("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "fsck: --dir is required\n");
    return 2;
  }
  const bool repair = flags.Choose<bool>("repair", "no", {{"no", false}, {"yes", true}});
  const bool json = ParseJsonFormat(flags);
  const std::string demo = flags.Get("demo", "");
  bsstore::StoreFs& fs = bsstore::RealFs::Instance();

  if (!demo.empty()) {
    if (demo != "clean" && demo != "torn") {
      std::fprintf(stderr, "fsck: --demo must be clean or torn\n");
      return 2;
    }
    if (!BuildFsckDemo(fs, dir, demo == "torn")) {
      std::fprintf(stderr, "fsck: demo store construction failed in %s\n",
                   dir.c_str());
      return 2;
    }
  }

  const bsstore::FsckReport report = bsstore::RunFsck(fs, dir, repair);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    PrintFsckTable(report);
  }
  if (!report.store_found) return 1;
  return report.healthy || report.repaired ? 0 : 1;
}

// ---------------------------------------------------------------------------
// timeline: forensic reconstruction of a ban's causal chain. Runs a seeded
// attack scenario with one shared SpanTracer across every node, then prints
// its log — every node's records, spans and node events alike — and walks
// the last kBan span's parent chain back to its root. Exit 0 iff the chain is complete: it reaches a
// root kSend/kInject span and crosses at least two distinct nodes (the
// acceptance test for cross-node causality).

std::string IpToString(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

std::string SpanLine(const bsobs::SpanRecord& rec) {
  char buf[256];
  std::string detail;
  switch (rec.kind) {
    case bsobs::SpanKind::kSend:
    case bsobs::SpanKind::kInject:
      detail = (rec.msg_type >= 0
                    ? std::string(bsproto::CommandName(
                          static_cast<bsproto::MsgType>(rec.msg_type)))
                    : std::string("?")) +
               " " + std::to_string(rec.a) + " B";
      if (rec.kind == bsobs::SpanKind::kInject) {
        detail += " spoofing " + IpToString(static_cast<std::uint32_t>(rec.b));
      }
      break;
    case bsobs::SpanKind::kReceive:
      detail = (rec.msg_type >= 0
                    ? std::string(bsproto::CommandName(
                          static_cast<bsproto::MsgType>(rec.msg_type)))
                    : std::string("?")) +
               " " + std::to_string(rec.b) + " B";
      break;
    case bsobs::SpanKind::kDrop:
      detail = "decode status " + std::to_string(rec.a) + ", " +
               std::to_string(rec.b) + " B";
      break;
    case bsobs::SpanKind::kShed:
      detail = std::to_string(rec.a) + " B shed" + (rec.b != 0 ? " by the governor" : "");
      break;
    case bsobs::SpanKind::kMisbehavior:
      detail = "+" + std::to_string(rec.a) + " -> score " + std::to_string(rec.b);
      break;
    case bsobs::SpanKind::kBan:
      detail = "banned " + IpToString(static_cast<std::uint32_t>(rec.a)) +
               " at score " + std::to_string(rec.b);
      break;
    case bsobs::SpanKind::kConnected:
    case bsobs::SpanKind::kDisconnected:
      detail = std::string(rec.b != 0 ? "inbound " : "outbound ") +
               IpToString(static_cast<std::uint32_t>(rec.a)) + " peer=" +
               std::to_string(rec.peer_id);
      break;
    default:  // the other node events
      detail = "peer=" + std::to_string(rec.peer_id) + " a=" + std::to_string(rec.a) +
               " b=" + std::to_string(rec.b);
      break;
  }
  std::string flags;
  if ((rec.flags & bsobs::kFlagOrphan) != 0) flags += " ORPHAN";
  if ((rec.flags & bsobs::kFlagResync) != 0) flags += " RESYNC";
  if ((rec.flags & bsobs::kFlagDiscouraged) != 0) flags += " DISCOURAGED";
  std::snprintf(buf, sizeof(buf),
                "%12.6f  %-15s %-12s trace=%llu span=%llu parent=%llu  %s%s",
                bsim::ToSeconds(rec.time), IpToString(rec.node_ip).c_str(),
                bsobs::ToString(rec.kind),
                static_cast<unsigned long long>(rec.trace_id),
                static_cast<unsigned long long>(rec.span_id),
                static_cast<unsigned long long>(rec.parent_span), detail.c_str(),
                flags.c_str());
  return buf;
}

int RunTimeline(const Flags& flags) {
  const std::string scenario = flags.Get("scenario", "defame-post");
  const std::uint32_t peer_filter = bsproto::Endpoint::ParseIp(flags.Get("peer", ""));
  const std::uint64_t seed = SeedOf(flags);
  bsobs::SpanTracer tracer;
  std::unique_ptr<bsscenario::DefameWorld> defame;
  std::unique_ptr<bsscenario::SybilWorld> sybil;
  if (scenario == "defame-pre" || scenario == "defame-post") {
    bsscenario::DefameSpec spec;
    spec.seed = seed;
    spec.tracer = &tracer;
    spec.outbound = scenario == "defame-post" ? 1 : 0;
    defame = std::make_unique<bsscenario::DefameWorld>(spec);
    if (scenario == "defame-pre") {
      defame->DefamePre();
    } else if (!defame->DefamePost().session_found) {
      std::fprintf(stderr, "timeline: setup failed, no outbound session\n");
      return 2;
    }
  } else if (scenario == "sybil") {
    bsscenario::SybilSpec spec;
    spec.seed = seed;
    spec.tracer = &tracer;
    spec.attacker_ip = bsscenario::DefameWorld::kAttackerIp;
    spec.attack.max_identifiers = 2;
    sybil = std::make_unique<bsscenario::SybilWorld>(spec);
    sybil->RunFor(5);
    sybil->Run(20);
  } else {
    std::fprintf(stderr, "timeline: unknown --scenario '%s'\n", scenario.c_str());
    return 2;
  }

  // ---- the one log: every node's records, in the order they were written.
  const std::vector<bsobs::SpanRecord> spans = tracer.Log().Snapshot();
  std::printf("timeline: scenario=%s, seed=%llu, %zu spans "
              "(%llu recorded, %llu evicted)\n\n",
              scenario.c_str(), static_cast<unsigned long long>(seed), spans.size(),
              static_cast<unsigned long long>(tracer.Log().Recorded()),
              static_cast<unsigned long long>(tracer.Log().Dropped()));
  std::printf("%12s  %-15s %s\n", "time (s)", "node", "record");
  for (const bsobs::SpanRecord& rec : spans) {
    if (peer_filter == 0 || rec.node_ip == peer_filter ||
        static_cast<std::uint32_t>(rec.a) == peer_filter ||
        static_cast<std::uint32_t>(rec.b) == peer_filter) {
      std::printf("%s\n", SpanLine(rec).c_str());
    }
  }

  // ---- causal chain of the last ban: walk parent_span links to the root.
  std::map<std::uint64_t, const bsobs::SpanRecord*> by_span;
  const bsobs::SpanRecord* ban = nullptr;
  for (const bsobs::SpanRecord& rec : spans) {
    by_span[rec.span_id] = &rec;
    if (rec.kind == bsobs::SpanKind::kBan) ban = &rec;
  }
  if (ban == nullptr) {
    std::printf("\nno kBan span recorded — nothing to reconstruct\n");
    return 1;
  }
  std::vector<const bsobs::SpanRecord*> chain;
  std::set<std::uint64_t> nodes;
  for (const bsobs::SpanRecord* rec = ban; rec != nullptr;) {
    chain.push_back(rec);
    nodes.insert(rec->node_ip);
    if (rec->parent_span == 0) break;
    const auto it = by_span.find(rec->parent_span);
    rec = it == by_span.end() ? nullptr : it->second;
  }
  std::printf("\ncausal chain of the final ban (leaf -> root):\n");
  for (const bsobs::SpanRecord* rec : chain) std::printf("  %s\n", SpanLine(*rec).c_str());
  const bsobs::SpanRecord* root = chain.back();
  const bool rooted = root->parent_span == 0 &&
                      (root->kind == bsobs::SpanKind::kSend ||
                       root->kind == bsobs::SpanKind::kInject);
  const bool cross_node = nodes.size() >= 2;
  std::printf("\nchain: %zu spans across %zu nodes, root=%s -> %s\n", chain.size(),
              nodes.size(), rooted ? bsobs::ToString(root->kind) : "MISSING",
              rooted && cross_node ? "COMPLETE" : "INCOMPLETE");
  return rooted && cross_node ? 0 : 1;
}

// ---------------------------------------------------------------------------
// bench-diff: compare two BENCH_*.json reports field by field. Deterministic
// counters gate at --tolerance (default 0: exact); timing fields (ns/sec/
// rate-valued, matched by name) gate at --timing-tolerance. Exit 2 when the
// reports are not comparable (parse failure, schema/bench/seed mismatch),
// 1 when any field leaves its tolerance, 0 on pass.

/// Split a dotted/underscored field path into lowercase tokens, so "ns" in
/// "p50_ns" matches but the "ns_" inside "spans_recorded" does not.
std::vector<std::string> FieldTokens(const std::string& key) {
  std::vector<std::string> tokens;
  std::string cur;
  for (const char c : key) {
    if (c == '.' || c == '_') {
      if (!cur.empty()) tokens.push_back(cur);
      cur.clear();
    } else {
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

bool IsTimingField(const std::string& key) {
  for (const std::string& tok : FieldTokens(key)) {
    for (const char* t : {"ns", "sec", "secs", "seconds", "hps", "wall", "ratio",
                          "time", "latency", "overhead"}) {
      if (tok == t) return true;
    }
  }
  return false;
}

/// Distribution extremes (min_ns/max_ns) are single-sample outliers — one
/// cold cache miss moves max_ns by orders of magnitude — so they are shown
/// but never gated.
bool IsInfoOnlyField(const std::string& key) {
  if (!IsTimingField(key)) return false;
  for (const std::string& tok : FieldTokens(key)) {
    if (tok == "min" || tok == "max") return true;
  }
  return false;
}

std::optional<bsutil::JsonValue> LoadReport(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench-diff: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  auto parsed = bsutil::ParseJson(text);
  if (!parsed) std::fprintf(stderr, "bench-diff: %s is not valid JSON\n", path.c_str());
  return parsed;
}

/// Identity fields that must agree before any numeric comparison happens.
bool SameIdentity(const bsutil::JsonValue& a, const bsutil::JsonValue& b,
                  std::string& why) {
  const auto str_of = [](const bsutil::JsonValue& v, const char* key) {
    const bsutil::JsonValue* f = v.Find(key);
    return f != nullptr && f->IsString() ? f->str : std::string();
  };
  const auto num_of = [](const bsutil::JsonValue& v, const char* key) {
    const bsutil::JsonValue* f = v.Find(key);
    return f != nullptr && f->IsNumber() ? f->number : -1.0;
  };
  if (str_of(a, "schema") != bsbench::kReportSchema ||
      str_of(b, "schema") != bsbench::kReportSchema) {
    why = "missing or foreign \"schema\" field (want \"" +
          std::string(bsbench::kReportSchema) + "\")";
    return false;
  }
  if (num_of(a, "schema_version") != num_of(b, "schema_version")) {
    why = "schema_version mismatch";
    return false;
  }
  if (str_of(a, "bench") != str_of(b, "bench")) {
    why = "bench name mismatch (" + str_of(a, "bench") + " vs " + str_of(b, "bench") + ")";
    return false;
  }
  if (num_of(a, "seed") != num_of(b, "seed")) {
    why = "seed mismatch — deterministic counters are not comparable";
    return false;
  }
  return true;
}

int RunBenchDiff(const Flags& flags) {
  const std::string old_path = flags.Get("old", "");
  const std::string new_path = flags.Get("new", "");
  const double max_tol = std::numeric_limits<double>::max();
  const double tol = flags.GetNum("tolerance", 0.0, 0, max_tol);
  const double timing_tol = flags.GetNum("timing-tolerance", 0.5, 0, max_tol);
  if (old_path.empty() || new_path.empty()) {
    std::fprintf(stderr, "bench-diff: --old and --new are required\n");
    return 2;
  }

  const auto old_doc = LoadReport(old_path);
  const auto new_doc = LoadReport(new_path);
  if (!old_doc || !new_doc) return 2;
  std::string why;
  if (!SameIdentity(*old_doc, *new_doc, why)) {
    std::fprintf(stderr, "bench-diff: reports are not comparable: %s\n", why.c_str());
    return 2;
  }

  const bsutil::JsonValue* old_results = old_doc->Find("results");
  const bsutil::JsonValue* new_results = new_doc->Find("results");
  if (old_results == nullptr || new_results == nullptr) {
    std::fprintf(stderr, "bench-diff: a report has no \"results\" object\n");
    return 2;
  }
  std::vector<std::pair<std::string, double>> old_flat;
  std::vector<std::pair<std::string, double>> new_flat;
  bsutil::FlattenJsonNumbers(*old_results, "", old_flat);
  bsutil::FlattenJsonNumbers(*new_results, "", new_flat);
  std::map<std::string, double> new_map(new_flat.begin(), new_flat.end());

  std::printf("bench-diff: %s\n            %s\n", old_path.c_str(), new_path.c_str());
  std::printf("tolerance %.4g (deterministic), %.4g (timing)\n\n", tol, timing_tol);
  std::printf("%-44s %14s %14s %9s %7s  %s\n", "field", "old", "new", "delta",
              "gate", "verdict");
  int violations = 0;
  for (const auto& [key, old_value] : old_flat) {
    const auto it = new_map.find(key);
    if (it == new_map.end()) {
      std::printf("%-44s %14.6g %14s %9s %7s  MISSING\n", key.c_str(), old_value,
                  "-", "-", "-");
      ++violations;
      continue;
    }
    const bool timing = IsTimingField(key);
    const bool info = IsInfoOnlyField(key);
    const double limit = timing ? timing_tol : tol;
    const double base = std::max(std::abs(old_value), 1e-12);
    const double rel = std::abs(it->second - old_value) / base;
    const bool ok = info || rel <= limit;
    if (!ok) ++violations;
    std::printf("%-44s %14.6g %14.6g %8.2f%% %7s  %s\n", key.c_str(), old_value,
                it->second, 100.0 * rel,
                info ? "info" : (timing ? "loose" : "tight"),
                ok ? "ok" : "VIOLATION");
    new_map.erase(it);
  }
  for (const auto& [key, value] : new_map) {
    std::printf("%-44s %14s %14.6g %9s %7s  new field\n", key.c_str(), "-", value,
                "-", "-");
  }
  std::printf("\n%s: %d violation%s\n", violations == 0 ? "PASS" : "FAIL", violations,
              violations == 1 ? "" : "s");
  return violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// fuzz — deterministic structure-aware fuzz campaigns over the five
// harnesses (four wire-facing, one SHA-256 kernel differential), plus the
// Table I differential rule-set oracle. Exit 0 iff every campaign is
// failure-free AND the observed 0.20/0.21/0.22 divergence set equals the
// paper's predicted matrix exactly.

int RunFuzz(const Flags& flags) {
  const std::string harness = flags.Get("harness", "all");
  const bool json = ParseJsonFormat(flags);
  const std::string corpus = flags.Get("corpus", "fuzz/corpus");
  const std::string artifacts = flags.Get("artifacts", "build/fuzz-artifacts");
  const std::uint64_t max_seed = std::numeric_limits<std::uint64_t>::max();
  const auto seeds = static_cast<std::size_t>(flags.GetCount("seeds", 8, 1, kMaxInt));
  const std::uint64_t seed_base = flags.GetCount("seed-base", 1, 0, max_seed);
  const auto iters = static_cast<std::size_t>(flags.GetCount("iters", 1500, 1, kMaxInt));
  const auto diff_iters =
      static_cast<std::size_t>(flags.GetCount("diff-iters", 200, 1, kMaxInt));
  const auto count = static_cast<std::size_t>(flags.GetCount("count", 6, 1, kMaxInt));
  const std::string replay = flags.Get("replay", "");
  const std::string reseed = flags.Get("reseed", "");

  if (harness != "all" && harness != "diff") {
    const auto& known = bsfuzz::AllHarnesses();
    if (std::find(known.begin(), known.end(), harness) == known.end()) {
      std::fprintf(stderr, "unknown --harness: %s\n", harness.c_str());
      return 2;
    }
  }

  if (!reseed.empty()) {
    std::size_t total = 0;
    for (const std::string& h : bsfuzz::AllHarnesses()) {
      const std::size_t n = bsfuzz::ReseedCorpus(h, reseed, seed_base, count);
      std::printf("reseeded %s: %zu inputs\n", h.c_str(), n);
      total += n;
    }
    // +1: the codec corpus always gets the pinned divergent tip-probe entry.
    return total == bsfuzz::AllHarnesses().size() * count + 1 ? 0 : 1;
  }

  if (!replay.empty()) {
    if (harness == "all" || harness == "diff") {
      std::fprintf(stderr, "--replay needs a concrete --harness\n");
      return 2;
    }
    bsutil::ByteVec input;
    if (!bsfuzz::ReadReproFile(replay, input)) {
      std::fprintf(stderr, "cannot read repro file: %s\n", replay.c_str());
      return 2;
    }
    const bsfuzz::HarnessResult r = bsfuzz::RunHarness(harness, input);
    std::printf("%s: %s%s%s\n", harness.c_str(), r.ok ? "OK" : "FAIL",
                r.ok ? "" : " oracle=", r.ok ? "" : r.oracle.c_str());
    if (!r.ok) std::printf("  detail: %s\n", r.detail.c_str());
    return r.ok ? 0 : 1;
  }

  std::vector<std::string> harnesses;
  bool run_diff = false;
  if (harness == "all") {
    harnesses = bsfuzz::AllHarnesses();
    run_diff = true;
  } else if (harness == "diff") {
    run_diff = true;
  } else {
    harnesses = {harness};
  }

  struct CampaignRow {
    std::string harness;
    std::size_t iterations = 0;
    std::size_t corpus_inputs = 0;
    std::vector<bsfuzz::FuzzFailure> failures;
  };
  std::vector<CampaignRow> rows;
  std::size_t total_failures = 0;
  for (const std::string& h : harnesses) {
    CampaignRow row;
    row.harness = h;
    for (std::size_t s = 0; s < seeds; ++s) {
      bsfuzz::CampaignConfig config;
      config.harness = h;
      config.seed = seed_base + s;
      config.iters = iters;
      config.corpus_dir = s == 0 ? corpus : "";  // replay corpus once
      config.artifacts_dir = artifacts;
      bsfuzz::CampaignResult r = bsfuzz::RunCampaign(config);
      row.iterations += r.iterations;
      row.corpus_inputs += r.corpus_inputs;
      for (auto& f : r.failures) row.failures.push_back(std::move(f));
    }
    total_failures += row.failures.size();
    rows.push_back(std::move(row));
  }

  bsfuzz::DiffResult diff;
  if (run_diff) {
    diff = bsfuzz::RunDifferential(seed_base, diff_iters * seeds);
  }
  const bool ok = total_failures == 0 && (!run_diff || diff.ok);

  if (json) {
    std::vector<std::string> campaigns;
    for (const CampaignRow& row : rows) {
      std::vector<std::string> failures;
      for (const auto& fail : row.failures) {
        bsutil::JsonObject f;
        f.Add("seed", fail.seed).Add("oracle", fail.oracle).Add("source", fail.source);
        failures.push_back(f.Add("artifact", fail.artifact_path).Render());
      }
      bsutil::JsonObject c;
      c.Add("harness", row.harness).Add("iterations", row.iterations);
      c.Add("corpus_inputs", row.corpus_inputs);
      campaigns.push_back(c.AddRaw("failures", bsutil::JsonArray(failures)).Render());
    }
    bsutil::JsonObject out;
    out.AddRaw("campaigns", bsutil::JsonArray(campaigns));
    if (run_diff) {
      const auto cells = [](const std::vector<std::string>& names) {
        std::vector<std::string> quoted;
        for (const std::string& name : names) {
          quoted.push_back("\"" + bsutil::JsonEscape(name) + "\"");
        }
        return bsutil::JsonArray(quoted);
      };
      bsutil::JsonObject d;
      d.Add("ok", diff.ok).Add("events", diff.events).AddRaw("observed", cells(diff.observed));
      d.AddRaw("unpredicted", cells(diff.unpredicted)).AddRaw("missing", cells(diff.missing));
      out.AddRaw("differential", d.Render());
    }
    PrintJson(out.Add("ok", ok));
  } else {
    std::printf("%-10s %12s %8s %9s\n", "harness", "iterations", "corpus",
                "failures");
    for (const CampaignRow& row : rows) {
      std::printf("%-10s %12zu %8zu %9zu\n", row.harness.c_str(), row.iterations,
                  row.corpus_inputs, row.failures.size());
      for (const auto& fail : row.failures) {
        std::printf("  FAIL seed=%llu source=%s oracle=%s\n",
                    static_cast<unsigned long long>(fail.seed),
                    fail.source.c_str(), fail.oracle.c_str());
        std::printf("    detail: %s\n", fail.detail.c_str());
        if (!fail.artifact_path.empty()) {
          std::printf("    repro: %s\n", fail.artifact_path.c_str());
        }
      }
    }
    if (run_diff) {
      std::printf("differential: %s (%zu events, %zu/%zu predicted cells hit",
                  diff.ok ? "PASS" : "FAIL", diff.events,
                  diff.predicted.size() - diff.missing.size(),
                  diff.predicted.size());
      std::printf(", %zu unpredicted)\n", diff.unpredicted.size());
      for (const std::string& cell : diff.unpredicted) {
        std::printf("  UNPREDICTED divergence: %s\n", cell.c_str());
      }
      for (const std::string& cell : diff.missing) {
        std::printf("  MISSING divergence: %s\n", cell.c_str());
      }
    }
    std::printf("%s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// testbed: N-process loopback cluster with a kill -9 recovery drill
//
// Spawns N bsnetd daemons on loopback (ports derived from the pid so
// parallel ctest runs never collide), waits for full-mesh handshakes, lets
// the miner build a chain, kill -9s the last member mid-traffic, restarts it
// on the same store directory, and requires:
//   - the survivors notice the silent death (the dead peer's entry drains),
//   - the restarted member replays its WAL and reconverges to within one
//     block of the miner,
//   - no honest peer is banned anywhere at any point,
//   - every member exits 0 on RPC "stop" and every store passes fsck.

struct TestbedMember {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::uint16_t rpc_port = 0;
  std::string store_dir;
};

std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

pid_t SpawnTestbedDaemon(const std::string& bsnetd, const TestbedMember& member,
                         const std::string& peers, bool miner,
                         std::uint64_t seed, long lifetime_sec) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child. --seconds is a safety net so an orphaned daemon cannot outlive a
  // crashed supervisor.
  std::vector<std::string> args = {
      bsnetd,       "--port",      std::to_string(member.port),
      "--rpc-port", std::to_string(member.rpc_port),
      "--store-dir", member.store_dir,
      "--seed",     std::to_string(seed),
      "--seconds",  std::to_string(lifetime_sec),
      "--quiet",    "",
  };
  args.pop_back();  // "--quiet" takes no value
  if (!peers.empty()) {
    args.push_back("--peers");
    args.push_back(peers);
  }
  if (miner) {
    args.push_back("--mine-interval-ms");
    args.push_back("150");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(bsnetd.c_str(), argv.data());
  std::_Exit(127);
}

std::optional<bsutil::JsonValue> TestbedRpc(std::uint16_t rpc_port,
                                            const std::string& request) {
  const auto reply = RpcCall(rpc_port, request, 1000);
  if (!reply) return std::nullopt;
  return bsutil::ParseJson(*reply);
}

/// getinfo field, or -1 when the daemon is unreachable / mid-start.
long TestbedInfo(std::uint16_t rpc_port, const std::string& field) {
  const auto doc = TestbedRpc(rpc_port, "{\"method\":\"getinfo\"}");
  if (!doc) return -1;
  const bsutil::JsonValue* result = doc->Find("result");
  if (result == nullptr) return -1;
  const bsutil::JsonValue* value = result->Find(field);
  return value != nullptr && value->IsNumber() ? static_cast<long>(value->number)
                                               : -1;
}

bool TestbedPoll(const std::function<bool()>& done, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 100) {
    if (done()) return true;
    ::usleep(100 * 1000);
  }
  return done();
}

/// True when any member reports a non-empty ban list or a peer with a
/// positive ban score — the invariant the whole drill must never violate.
bool TestbedAnyHonestBan(const std::vector<TestbedMember>& members) {
  for (const auto& m : members) {
    if (m.pid < 0) continue;
    const long bans = TestbedInfo(m.rpc_port, "bans");
    if (bans > 0) return true;
    const auto peers = TestbedRpc(m.rpc_port, "{\"method\":\"getpeerinfo\"}");
    if (!peers) continue;
    const bsutil::JsonValue* result = peers->Find("result");
    if (result == nullptr || !result->IsArray()) continue;
    for (const auto& peer : result->array) {
      const bsutil::JsonValue* score = peer.Find("banscore");
      if (score != nullptr && score->IsNumber() && score->number > 0) return true;
    }
  }
  return false;
}

int RunTestbed(const Flags& flags) {
  const bool json = ParseJsonFormat(flags);
  // Each member is a bsnetd process with two ports.
  const int n = static_cast<int>(flags.GetCount("nodes", 3, 2, 16));
  const std::uint64_t seed = SeedOf(flags);
  const long lifetime_sec = static_cast<long>(flags.GetCount("lifetime", 120, 1, 1000000));
  const std::string bsnetd = SelfDir() + "/bsnetd";
  if (::access(bsnetd.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "testbed: bsnetd not found at %s\n", bsnetd.c_str());
    return 2;
  }

  // Pid-derived ports: 2N consecutive ports somewhere in 20000..59999.
  const std::uint16_t base = static_cast<std::uint16_t>(
      20000 + (static_cast<unsigned>(::getpid()) * 131) % 39000);
  const std::string root =
      "bsnetd-testbed-" + std::to_string(static_cast<long>(::getpid()));
  std::vector<TestbedMember> members(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& m = members[static_cast<std::size_t>(i)];
    m.port = static_cast<std::uint16_t>(base + i);
    m.rpc_port = static_cast<std::uint16_t>(base + n + i);
    m.store_dir = root + "/n" + std::to_string(i);
  }
  const auto peers_of = [&](int self) {
    std::string list;
    for (int i = 0; i < n; ++i) {
      if (i == self) continue;
      if (!list.empty()) list += ",";
      list += "127.0.0.1:" + std::to_string(members[static_cast<std::size_t>(i)].port);
    }
    return list;
  };

  bool ok = true;
  std::string failure;
  const auto fail = [&](const std::string& why) {
    ok = false;
    if (failure.empty()) failure = why;
  };

  for (int i = 0; i < n; ++i) {
    auto& m = members[static_cast<std::size_t>(i)];
    m.pid = SpawnTestbedDaemon(bsnetd, m, peers_of(i), /*miner=*/i == 0, seed + i,
                               lifetime_sec);
  }

  // Phase 1: full connectivity — every member handshakes at least one peer.
  if (!TestbedPoll(
          [&] {
            for (const auto& m : members) {
              if (TestbedInfo(m.rpc_port, "established") < 1) return false;
            }
            return true;
          },
          15000)) {
    fail("cluster never converged to established handshakes");
  }

  // Phase 2: traffic — the victim must have real chain state to lose.
  const int victim = n - 1;
  auto& v = members[static_cast<std::size_t>(victim)];
  if (ok && !TestbedPoll(
                [&] { return TestbedInfo(v.rpc_port, "height") >= 2; }, 15000)) {
    fail("victim never synced past height 2");
  }
  if (ok && TestbedAnyHonestBan(members)) fail("honest ban before the kill");

  // Phase 3: kill -9 mid-traffic. Survivors must drain the dead peer.
  const std::uint16_t victim_port = v.port;
  if (ok) {
    ::kill(v.pid, SIGKILL);
    int status = 0;
    ::waitpid(v.pid, &status, 0);
    v.pid = -1;
    const std::uint16_t miner_rpc = members[0].rpc_port;
    if (!TestbedPoll(
            [&] {
              const auto peers =
                  TestbedRpc(miner_rpc, "{\"method\":\"getpeerinfo\"}");
              if (!peers) return false;
              const bsutil::JsonValue* result = peers->Find("result");
              if (result == nullptr || !result->IsArray()) return false;
              for (const auto& peer : result->array) {
                const bsutil::JsonValue* addr = peer.Find("addr");
                if (addr != nullptr && addr->IsString() &&
                    addr->str == "127.0.0.1:" + std::to_string(victim_port)) {
                  return false;  // dead outbound entry still present
                }
              }
              return true;
            },
            30000)) {
      fail("survivors never dropped the killed member's connection");
    }
  }

  // Phase 4: restart on the same store directory; the WAL must replay and
  // the member must redial and reconverge to the miner's chain.
  if (ok) {
    v.pid = SpawnTestbedDaemon(bsnetd, v, peers_of(victim), /*miner=*/false,
                               seed + victim, lifetime_sec);
    if (!TestbedPoll(
            [&] {
              if (TestbedInfo(v.rpc_port, "established") < 1) return false;
              const long miner_height = TestbedInfo(members[0].rpc_port, "height");
              const long victim_height = TestbedInfo(v.rpc_port, "height");
              return miner_height >= 0 && victim_height >= 0 &&
                     miner_height - victim_height <= 1;
            },
            30000)) {
      fail("restarted member never reconverged with the miner");
    }
  }
  if (ok && TestbedAnyHonestBan(members)) fail("honest ban after recovery");

  // Phase 5: graceful stop everywhere; every live member must exit 0.
  for (auto& m : members) {
    if (m.pid < 0) continue;
    TestbedRpc(m.rpc_port, "{\"method\":\"stop\"}");
  }
  for (auto& m : members) {
    if (m.pid < 0) continue;
    int status = 0;
    if (!TestbedPoll(
            [&] { return ::waitpid(m.pid, &status, WNOHANG) == m.pid; }, 10000)) {
      ::kill(m.pid, SIGKILL);
      ::waitpid(m.pid, &status, 0);
      fail("member on port " + std::to_string(m.port) +
           " did not exit on RPC stop");
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail("member on port " + std::to_string(m.port) + " exited unclean");
    }
    m.pid = -1;
  }

  // Phase 6: every store directory must verify healthy — including the one
  // that lived through kill -9.
  for (const auto& m : members) {
    const bsstore::FsckReport report =
        bsstore::RunFsck(bsstore::RealFs::Instance(), m.store_dir, false);
    if (!report.store_found || !report.healthy) {
      fail("fsck unhealthy in " + m.store_dir);
    }
  }

  if (json) {
    bsutil::JsonObject j;
    j.Add("schema", "banscore-lab-testbed").Add("seed", seed).Add("nodes", n);
    PrintJson(j.Add("pass", ok).Add("failure", failure));
  } else {
    std::printf("testbed: %d nodes, seed %llu\n", n,
                static_cast<unsigned long long>(seed));
    if (!ok) std::printf("  FAILED: %s\n", failure.c_str());
    std::printf("%s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

/// A malformed command line: usage goes to stderr, stdout stays empty.
void Usage() {
  std::fprintf(stderr,
      "banscore-lab <scenario> [--flag value ...]\n"
      "scenarios:\n"
      "  rules   --version 0.20|0.21|0.22\n"
      "  bmdos   --payload ping|bogus-block|unknown|invalid-pow --connections N\n"
      "          --rate R --seconds S --policy banscore|infinity|disabled|goodscore\n"
      "  sybil   --identifiers N --delay-ms D --version V --threshold T\n"
      "  defame  --mode pre|post --policy P\n"
      "  detect  --train-minutes M --window W --attack bmdos|defame\n"
      "  dump-metrics --seconds S --payload P --format prom|json\n"
      "          (run a short instrumented flood, print the bsobs snapshot)\n"
      "  chaos   --seeds N --seed-base B --seconds S\n"
      "          (seeded fault-injection sweep over the hardened node;\n"
      "           exit 0 iff every seed's safety invariants held)\n"
      "  overload --defenses none|eviction|ratelimit|priority|all --procs N\n"
      "          --windows W --min-ratio R --format table|json\n"
      "          (Sybil-flood A/B of honest mining rate; exit 1 if the\n"
      "           attacked/baseline ratio drops below --min-ratio)\n"
      "  fsck    --dir D --repair yes --format table|json --demo clean|torn\n"
      "          (validate/repair a crash-consistent state-store directory;\n"
      "           exit 0 iff the store is healthy after any requested repair)\n"
      "  eclipse --defenses none|all --seconds S --heal-fraction F\n"
      "          --format table|json\n"
      "          (sustained eclipse vs stock or hardened victim; exit 0 iff\n"
      "           the final attacker control fraction is below --heal-fraction)\n"
      "  partition --defenses none|all --seconds S --format table|json\n"
      "          (asymmetric one-way routing detour vs stock or hardened\n"
      "           victim, with a listen-only tip-probe witness; exit 0 iff\n"
      "           the victim ends within 1 block of the miner)\n"
      "  timeline --scenario defame-post|defame-pre|sybil --peer a.b.c.d\n"
      "          (seeded run under a shared span tracer; prints its one\n"
      "           event log and walks the final ban's causal chain;\n"
      "           exit 0 iff the chain is complete and crosses nodes)\n"
      "  fuzz --harness codec|tracker|store|addrman|sha256|diff|all --seeds N\n"
      "          --seed-base B --iters I --corpus DIR --artifacts DIR\n"
      "          --format table|json\n"
      "          (deterministic structure-aware fuzz campaigns over the five\n"
      "           harnesses plus the Table I differential oracle;\n"
      "           failures are minimized into DIR/<h>-seed<S>-iter<I>.repro;\n"
      "           --replay FILE re-runs one repro; --reseed DIR --count K\n"
      "           regenerates the committed corpus; exit 0 iff no oracle\n"
      "           fired and observed divergence == Table I exactly)\n"
      "  testbed --nodes N --seed S --format table|json\n"
      "          (spawn an N-process bsnetd loopback cluster, kill -9 a\n"
      "           member mid-traffic, restart it on the same store dir;\n"
      "           exit 0 iff the cluster reconverges with zero honest bans\n"
      "           and every store passes fsck)\n"
      "  bench-diff --old A.json --new B.json --tolerance T\n"
      "          --timing-tolerance TT\n"
      "          (compare two BENCH_*.json reports; deterministic counters\n"
      "           gate tight, timing fields loose; exit 2 = not comparable,\n"
      "           1 = out of tolerance, 0 = pass)\n"
      "every scenario also accepts --seed N (default 42) and echoes it\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string scenario = argv[1];
  const Flags flags(argc, argv, 2);
  if (scenario == "rules") return RunRules(flags);
  if (scenario == "bmdos") return RunBmDos(flags);
  if (scenario == "sybil") return RunSybil(flags);
  if (scenario == "defame") return RunDefame(flags);
  if (scenario == "detect") return RunDetect(flags);
  if (scenario == "dump-metrics") return RunDumpMetrics(flags);
  if (scenario == "chaos") return RunChaos(flags);
  if (scenario == "overload") return RunOverload(flags);
  if (scenario == "fsck") return RunStoreFsck(flags);
  if (scenario == "eclipse") return RunEclipse(flags);
  if (scenario == "partition") return RunPartition(flags);
  if (scenario == "timeline") return RunTimeline(flags);
  if (scenario == "bench-diff") return RunBenchDiff(flags);
  if (scenario == "fuzz") return RunFuzz(flags);
  if (scenario == "testbed") return RunTestbed(flags);
  Usage();
  return 2;
}
