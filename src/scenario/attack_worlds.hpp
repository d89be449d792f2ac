// The paper's three attack worlds, each built around one target node:
//  - BmDosWorld (§III): an attacker floods the target over Sybil sessions,
//    optionally while the target mines on the calibrated CpuModel;
//  - SybilWorld (Fig. 8): an attacker bans one [IP:Port] identifier after
//    another with duplicate VERSIONs;
//  - DefameWorld (§IV): an attacker gets an innocent peer's identifiers
//    banned, before a connection exists (a spoofed session) or inside a live
//    one (an injected frame).
// `banscore-lab bmdos|dump-metrics|sybil|defame|timeline`, the fig6, fig8,
// table2, table3 and ablation benches, and the attack, e2e, countermeasure
// and span tests run them. Each spec carries the values in which those
// callers differ.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/bmdos.hpp"
#include "attack/crafter.hpp"
#include "attack/defamation.hpp"
#include "attack/sybil.hpp"
#include "core/node.hpp"
#include "sim/cpu.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace bsscenario {

/// What the three worlds share: the clock, the wire, the target's address.
struct AttackWorld {
  static constexpr std::uint32_t kTargetIp = 0x0a000001;

  void RunFor(double seconds) { sched.RunUntil(sched.Now() + bsim::FromSeconds(seconds)); }

  bsim::Scheduler sched;
  bsim::Network net{sched};
};

// ---------------------------------------------------------------------------
// BM-DoS

struct BmDosSpec {
  std::uint64_t seed = 42;  // the target's rng_seed
  bsnet::BanPolicy policy = bsnet::BanPolicy::kBanScore;
  /// What StartFlood() sends. Its sybil_connections also count toward the
  /// CPU model's active connections from the start.
  bsattack::BmDosConfig flood;
  /// The target mines on a CpuModel with this config; nullopt = no CPU model.
  std::optional<bsim::CpuModelConfig> cpu;
  /// Shared by the scheduler and the target; `net_metrics` adds the
  /// network's segment counters.
  bsobs::MetricsRegistry* metrics = nullptr;
  bool net_metrics = false;
  bsobs::HotpathProfiler* profiler = nullptr;
};

class BmDosWorld : public AttackWorld {
 public:
  static constexpr std::uint32_t kAttackerIp = 0x0a000002;
  /// The target's Mainnet peers, as the CPU model counts connections (Fig. 6).
  static constexpr int kNormalConnections = 10;

  /// Builds and starts the target at t = 0; nothing floods yet.
  explicit BmDosWorld(BmDosSpec spec);

  /// Open `flood.sybil_connections` fresh sessions and flood through them.
  /// Earlier floods stay allocated, stopped or not, until the world ends.
  void StartFlood(const bsattack::BmDosConfig& flood);
  void StartFlood() { StartFlood(spec_.flood); }
  void StopFlood() { floods_.back()->Stop(); }
  bsattack::BmDosAttack& Flood() { return *floods_.back(); }

  /// The target's mining over the next `seconds` (needs spec.cpu).
  bsim::MiningSample MiningWindow(double seconds);

  std::optional<bsim::CpuModel> cpu;
  std::unique_ptr<bsnet::Node> target;
  std::unique_ptr<bsattack::AttackerNode> attacker;

 private:
  BmDosSpec spec_;
  bsattack::Crafter crafter_;
  std::vector<std::unique_ptr<bsattack::BmDosAttack>> floods_;
};

// ---------------------------------------------------------------------------
// Serial Sybil

struct SybilSpec {
  std::uint64_t seed = 42;  // the target's rng_seed
  bsnet::CoreVersion version = bsnet::CoreVersion::kV0_20;
  int threshold = 100;
  bsattack::SerialSybilConfig attack;
  std::uint32_t attacker_ip = 0x0a000002;
  /// Shared by the scheduler, the network and the target.
  bsobs::MetricsRegistry* metrics = nullptr;
  /// Shared by the target and the attacker.
  bsobs::SpanTracer* tracer = nullptr;
};

struct SybilOutcome {
  int banned = 0;                   // identifiers banned
  double mean_time_to_ban = 0.0;    // seconds, over the banned identifiers
  std::vector<double> time_to_ban;  // seconds, one per banned identifier
  double mean_messages = 0.0;       // misbehaving messages per identifier

  /// §VI-D: minutes to ban all 16384 ephemeral ports of one IP, at the mean
  /// time-to-ban plus the 0.2 s socket setup per identifier.
  double FullIpMinutes() const { return 16384.0 * (mean_time_to_ban + 0.2) / 60.0; }
};

class SybilWorld : public AttackWorld {
 public:
  explicit SybilWorld(SybilSpec spec);

  /// Start the attack and run `seconds`.
  SybilOutcome Run(double seconds);

  std::unique_ptr<bsnet::Node> target;
  std::unique_ptr<bsattack::AttackerNode> attacker;
  std::unique_ptr<bsattack::SerialSybilAttack> attack;

 private:
  SybilSpec spec_;
};

// ---------------------------------------------------------------------------
// Defamation

struct DefameSpec {
  std::uint64_t seed = 42;  // every node's rng_seed
  bsnet::BanPolicy policy = bsnet::BanPolicy::kBanScore;
  /// The target dials the first `outbound` of {innocent, bystander}; the
  /// bystander node exists only when it is dialed.
  int outbound = 1;
  /// Shared by every node and the attacker.
  bsobs::SpanTracer* tracer = nullptr;
};

struct DefameOutcome {
  bsnet::Endpoint identifier;  // the defamed [IP:Port]
  bool session_found = true;   // post: the target had an outbound session to it
  int good_score = 0;          // post: the session's good score before the injection
  bool injected = false;       // post: the forged frame went into that session
  bool banned = false;
};

class DefameWorld : public AttackWorld {
 public:
  static constexpr std::uint32_t kInnocentIp = 0x0a000002;
  static constexpr std::uint32_t kBystanderIp = 0x0a000003;
  static constexpr std::uint32_t kAttackerIp = 0x0a000066;
  static constexpr std::uint16_t kSpoofedPort = 55555;

  /// Builds the nodes and boots them to t = 5 s.
  explicit DefameWorld(DefameSpec spec);

  /// Pre-connection Defamation: a spoofed session as [innocent:port] sends
  /// VERSION, VERACK and a SegWit-invalid TX (100 points); then runs
  /// `settle_seconds`.
  DefameOutcome DefamePre(std::uint16_t port = kSpoofedPort, double settle_seconds = 5);
  /// Post-connection Defamation: the innocent mines a block the target
  /// fetches (the good score the goodscore policy exempts), then the attacker
  /// injects a SegWit-invalid TX into the target's outbound session to the
  /// innocent, riding on a PING the innocent sends; then runs 5 s.
  DefameOutcome DefamePost();

  std::unique_ptr<bsnet::Node> target;
  std::unique_ptr<bsnet::Node> innocent;
  std::unique_ptr<bsnet::Node> bystander;  // null unless spec.outbound >= 2
  std::unique_ptr<bsattack::AttackerNode> attacker;
  bsattack::Crafter crafter;

 private:
  DefameSpec spec_;
  std::vector<std::unique_ptr<bsattack::PreConnectionDefamation>> pre_;
  std::unique_ptr<bsattack::PostConnectionDefamation> post_;
};

}  // namespace bsscenario
