// The §II eclipse composition world: Sybil inbound occupation, repeated ADDR
// poisoning and Defamation of honest outbounds against a stock or hardened
// victim, inside a 12-node honest ring mesh with one miner. Honest nodes
// learn the victim's address mid-run (the dial-ins the eviction defense
// admits). bench_eclipse_resilience, `banscore-lab eclipse` and the
// ChaosEclipseHeal test all run this world; the spec carries every value in
// which they differ.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/crafter.hpp"
#include "attack/eclipse.hpp"
#include "core/node.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/simfs.hpp"

namespace bsscenario {

struct EclipseSpec {
  /// Hardened = eviction + idle-session reaping + bucketed AddrMan + anchors
  /// + feelers + outbound diversity + stale-tip recovery; else stock 0.20.0.
  bool hardened = true;
  int run_seconds = 90;
  int attack_stop_seconds = 60;  // the attack runs from t = 5 s until here
  int dial_in_seconds = 50;      // honest nodes learn the victim's address
  std::uint64_t victim_seed = 42;
  /// Honest node i seeds with base + i, infrastructure node i with
  /// base + 1000 + i.
  std::uint64_t node_seed_base = 1000;
  int infra_nodes = 8;
  bsim::SimTime inactivity_timeout = 30 * bsim::kSecond;  // hardened only
  /// Heal time counts from attack start to the last 1 s sample at or above
  /// this control fraction.
  double heal_fraction = 0.5;
  /// The victim runs on the durable store, crashes at t = 9 s and is reborn
  /// at t = 11 s; the attacker re-acquires it at t = 11.5 s.
  /// `restart_reseeds` hands the reborn node the honest addresses again;
  /// otherwise it knows only what its store replays.
  bool crash_restart = false;
  bool restart_reseeds = true;
  /// > 0: a FaultPlan seeded with victim_seed drops this share of segments
  /// on every link from t = 4 s. 0: no FaultPlan is attached at all.
  double loss = 0.0;
};

struct EclipseOutcome {
  std::vector<double> series;  // control fraction, one sample per second
  double peak = 0.0;
  double final_fraction = 0.0;  // mean of the last 5 samples
  double heal_seconds = -1.0;   // from attack start; -1 = never healed
  // The victim's handshake-complete sessions at the end of the run.
  std::size_t honest_inbound = 0;
  int attacker_outbound = 0;  // the diversity check
};

class EclipseWorld {
 public:
  static constexpr int kHonestPeers = 12;  // distinct /16 netgroups, ring mesh
  static constexpr int kMaxInbound = 16;
  static constexpr int kTargetOutbound = 6;
  static constexpr int kAttackStartSeconds = 5;
  static constexpr const char* kStoreDir = "victim-store";  // on Fs()

  explicit EclipseWorld(EclipseSpec spec);
  ~EclipseWorld();
  EclipseWorld(const EclipseWorld&) = delete;
  EclipseWorld& operator=(const EclipseWorld&) = delete;

  /// Run to spec.run_seconds, sampling the control fraction every second.
  EclipseOutcome Run();

  bsnet::Node* Victim() { return victim_.get(); }
  bsnet::Node& Miner() { return *honest_[0]; }
  bsim::SimFs& Fs() { return fs_; }

 private:
  bsnet::NodeConfig VictimConfig();
  std::unique_ptr<bsnet::Node> SpawnVictim(bool seed_addresses);
  void MineTick();
  void RelayTxTick(bsnet::Node* node);
  double ControlFraction() const;

  EclipseSpec spec_;
  bsim::Scheduler sched_;
  bsim::Network net_;
  bsim::FaultPlan plan_;
  bsim::SimFs fs_;
  bsnet::NodeConfig victim_config_;
  bsattack::Crafter crafter_;
  std::vector<std::unique_ptr<bsnet::Node>> honest_;
  std::vector<std::unique_ptr<bsnet::Node>> infra_;
  std::vector<bsnet::Node*> infra_ptrs_;
  std::set<std::uint32_t> attacker_ips_;
  std::vector<std::unique_ptr<bsnet::Node>> graveyard_;
  std::unique_ptr<bsnet::Node> victim_;
  std::unique_ptr<bsattack::AttackerNode> attacker_;
  bsattack::EclipseConfig attack_config_;
  std::unique_ptr<bsattack::EclipseAttack> attack_;
  std::unique_ptr<bsattack::EclipseAttack> attack2_;  // rebound after a restart
};

}  // namespace bsscenario
