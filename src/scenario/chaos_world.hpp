// The chaos-fault world: a hardened victim, four honest peers and a Sybil
// attacker on one seeded FaultPlan. All drivers (honest pings, the attack
// loop, link flaps, the honest crash/restart) run off the one scheduler, so
// a run is a pure function of its seed. `banscore-lab chaos` and
// tests/chaos_test.cpp both run this world.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "core/node.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace bsscenario {

/// The victim of the chaos world: short bans (expiry happens inside the run)
/// and all the hardening on, so chaos exercises it: keepalive + dead-peer
/// detection, handshake watchdog, dial backoff.
bsnet::NodeConfig ChaosVictimConfig();

struct ChaosSpec {
  std::uint64_t seed = 1;  // FaultPlan seed; the weather RNG derives from it
  bsnet::NodeConfig victim = ChaosVictimConfig();
  /// CrashVictim saves the banlist here and SpawnVictim(true) reloads it;
  /// the file is removed with the world. Empty = no banlist file.
  std::string banlist_path;
};

class ChaosWorld {
 public:
  static constexpr std::uint32_t kVictimIp = 0x0a000001;
  static constexpr std::uint32_t kAttackerIp = 0x0a000066;
  static constexpr std::uint32_t kHonestBase = 0x0a000100;
  static constexpr int kHonestPeers = 4;

  explicit ChaosWorld(ChaosSpec spec);
  ~ChaosWorld();
  ChaosWorld(const ChaosWorld&) = delete;
  ChaosWorld& operator=(const ChaosWorld&) = delete;

  // ---- The randomized sweep (one seed) ----

  /// Clean boot: run to t = 5 s, so every outbound slot fills before the
  /// weather turns.
  void Boot();
  /// Randomized weather for `chaos_seconds` from t = 5 s: per-segment faults
  /// everywhere, two link flaps against the victim starting inside
  /// [5 s, 5 s + flap_window_seconds), one honest crash with restart, honest
  /// pings and the attack loop. Then the heal: attack and weather off, run
  /// past the ban-expiry horizon.
  void RunWeatherAndHeal(double chaos_seconds, double flap_window_seconds);

  // ---- World surgery ----

  void SpawnVictim(bool load_banlist);
  /// Crash the victim: persist its banlist (when the spec names a file),
  /// silence it, keep the carcass allocated until the run ends (in-flight
  /// events may still reference it).
  void CrashVictim();

  // ---- Drivers ----

  /// Honest peers ping the victim twice a second: protocol-legal traffic
  /// that must never earn a misbehavior point regardless of link faults.
  void StartHonestTraffic();
  /// The attacker keeps one session to the victim and sends a segwit-invalid
  /// TX (100 points, Table I) every 2 s: each delivery is an instant
  /// threshold crossing, so the run produces a stream of ban -> expiry ->
  /// re-ban cycles across Sybil identifiers.
  void StartAttack();
  void StopAttack() { attack_running_ = false; }

  // ---- Invariant observations ----

  /// True iff the attacker's IP is the only one ever misbehavior-scored.
  bool OnlyAttackerScored() const;

  bsim::Scheduler sched;
  bsim::Network net;
  bsim::FaultPlan plan;
  std::unique_ptr<bsnet::Node> victim;
  std::unique_ptr<bsattack::AttackerNode> attacker;

  std::set<std::uint32_t> scored_ips;
  int threshold_crossings_without_ban = 0;
  std::map<bsnet::Endpoint, int> ban_events;
  bsnet::Endpoint last_banned;
  std::uint64_t attack_deliveries = 0;

 private:
  void CrashHonest(std::size_t index);
  void RestartHonest(std::size_t index);
  void AttachInvariantHooks();
  void HonestTick();
  void AttackTick();

  ChaosSpec spec_;
  bsutil::Rng chaos_rng_;
  bsattack::Crafter crafter_;
  std::vector<std::unique_ptr<bsnet::Node>> honest_;
  std::vector<std::unique_ptr<bsnet::Node>> graveyard_;
  bool honest_running_ = false;
  bool attack_running_ = false;
  std::uint64_t honest_nonce_ = 0;
};

}  // namespace bsscenario
